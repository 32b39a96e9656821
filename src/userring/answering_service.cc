#include "src/userring/answering_service.h"

namespace multics {

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Result<std::unique_ptr<AnsweringService>> AnsweringService::Create(Kernel* kernel) {
  Principal service_principal{"Answering_Service", "SysDaemon", "z"};
  MX_ASSIGN_OR_RETURN(Process * service,
                      kernel->BootstrapProcess("answering_service", service_principal,
                                               MlsLabel::SystemHigh()));
  // The service is trusted *system* code, but not kernel code: ring 1.
  service->set_ring(kRingSupervisor);

  // Its password segment: an ordinary segment whose ACL names only the
  // service. No ring-0 mechanism protects it — the ACL is enough.
  MX_ASSIGN_OR_RETURN(SegNo root, kernel->RootDir(*service));
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Answering_Service", "SysDaemon", "*", kModeRead | kModeWrite});
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeNull});
  attrs.brackets = RingBrackets{kRingSupervisor, kRingSupervisor, kRingSupervisor};
  MX_ASSIGN_OR_RETURN(Uid pwd_uid, kernel->FsCreateSegment(*service, root, "pwd", attrs));
  (void)pwd_uid;
  MX_ASSIGN_OR_RETURN(InitiateResult init, kernel->Initiate(*service, root, "pwd"));
  MX_RETURN_IF_ERROR(kernel->SegSetLength(*service, init.segno, 1));

  return std::unique_ptr<AnsweringService>(new AnsweringService(kernel, service, init.segno));
}

Status AnsweringService::RegisterUser(const std::string& person, const std::string& project,
                                      const std::string& password,
                                      const MlsLabel& max_clearance) {
  MX_RETURN_IF_ERROR(kernel_->RunAs(*service_));
  const WordOffset base = records_ * kRecordWords;
  if (base + kRecordWords > kPageWords) {
    MX_RETURN_IF_ERROR(kernel_->SegSetLength(*service_, pwd_segno_,
                                             PageOf(base + kRecordWords) + 1));
  }
  Processor& cpu = kernel_->cpu();
  MX_RETURN_IF_ERROR(cpu.Write(pwd_segno_, base, Fnv1a(person + "." + project)));
  MX_RETURN_IF_ERROR(cpu.Write(pwd_segno_, base + 1, Fnv1a(password)));
  MX_RETURN_IF_ERROR(cpu.Write(pwd_segno_, base + 2, max_clearance.categories.bits()));
  MX_RETURN_IF_ERROR(cpu.Write(pwd_segno_, base + 3, static_cast<Word>(max_clearance.level)));
  ++records_;
  return Status::kOk;
}

Result<Process*> AnsweringService::Login(const std::string& person, const std::string& project,
                                         const std::string& password,
                                         const MlsLabel& requested,
                                         std::unique_ptr<Task> program) {
  MX_RETURN_IF_ERROR(kernel_->RunAs(*service_));
  Processor& cpu = kernel_->cpu();
  const uint64_t name_hash = Fnv1a(person + "." + project);
  const uint64_t pwd_hash = Fnv1a(password);

  for (uint32_t record = 0; record < records_; ++record) {
    const WordOffset base = record * kRecordWords;
    MX_ASSIGN_OR_RETURN(Word stored_name, cpu.Read(pwd_segno_, base));
    if (stored_name != name_hash) {
      continue;
    }
    MX_ASSIGN_OR_RETURN(Word stored_pwd, cpu.Read(pwd_segno_, base + 1));
    if (stored_pwd != pwd_hash) {
      break;  // Wrong password.
    }
    MX_ASSIGN_OR_RETURN(Word cats, cpu.Read(pwd_segno_, base + 2));
    MX_ASSIGN_OR_RETURN(Word level, cpu.Read(pwd_segno_, base + 3));
    MlsLabel max_clearance{static_cast<SensitivityLevel>(level),
                           CategorySet(static_cast<uint32_t>(cats))};
    if (!max_clearance.Dominates(requested)) {
      break;  // Asking for more clearance than the registry allows.
    }
    // Entering the user's "subsystem": an ordinary proc_create gate call,
    // legal because the service runs in ring 1.
    if (program == nullptr) {
      program = std::make_unique<FnTask>([](TaskContext&) { return TaskState::kDone; });
    }
    auto process = kernel_->ProcCreate(*service_, person + "_process",
                                       Principal{person, project, "a"}, requested,
                                       std::move(program));
    if (process.ok()) {
      ++successful_logins_;
    }
    return process;
  }
  ++failed_logins_;
  AuditLog& audit = kernel_->audit();
  audit.Record(audit.Intern(person + "." + project), "user_ring_login", kInvalidUid,
               Status::kAuthenticationFailed);
  return Status::kAuthenticationFailed;
}

Status AnsweringService::Logout(ProcessId pid) { return kernel_->ProcDestroy(*service_, pid); }

}  // namespace multics
