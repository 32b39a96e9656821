// The answering service, de-privileged.
//
// Legacy Multics authenticated users inside the supervisor (the `login`
// gate, a "large collection of privileged, protected code"). The paper's
// fourth removal project exploits "a recently-realized equivalence between
// the mechanics of entering a protected subsystem and the mechanics of
// creating a new process in response to a user's log in" to make the
// authenticator ordinary non-privileged code.
//
// This answering service runs as a ring-1 *process* (outside the security
// kernel). Its password registry is an ordinary segment protected by an
// ordinary ACL naming only the service's principal — the kernel contributes
// nothing but the mechanisms it already has. Login is then just: the service
// verifies the password against its own segment and enters the user's
// "subsystem" by creating a process for the authenticated principal.

#ifndef SRC_USERRING_ANSWERING_SERVICE_H_
#define SRC_USERRING_ANSWERING_SERVICE_H_

#include <memory>
#include <string>

#include "src/core/kernel.h"

namespace multics {

class AnsweringService {
 public:
  // Builds the service at system-initialization time: creates the service
  // process (ring 1) and its ACL-protected password segment under the
  // directory handle `dir_segno` of the *service's own* address space root.
  static Result<std::unique_ptr<AnsweringService>> Create(Kernel* kernel);

  // Records a user (writes a record into the password segment).
  Status RegisterUser(const std::string& person, const std::string& project,
                      const std::string& password, const MlsLabel& max_clearance);

  // Authenticates and creates the user's process at `requested` clearance.
  // `program` is the user's initial procedure — the "subsystem" the login
  // enters; when omitted the process is created with an empty program.
  Result<Process*> Login(const std::string& person, const std::string& project,
                         const std::string& password, const MlsLabel& requested,
                         std::unique_ptr<Task> program = nullptr);

  // Logout: destroys the user's process through the proc_destroy gate, as
  // Multics' answering service destroyed a process when its user logged
  // out. Legal for any user's process because the service runs in ring 1.
  Status Logout(ProcessId pid);

  Process* service_process() const { return service_; }
  SegNo password_segno() const { return pwd_segno_; }
  uint64_t failed_logins() const { return failed_logins_; }
  uint64_t successful_logins() const { return successful_logins_; }

 private:
  AnsweringService(Kernel* kernel, Process* service, SegNo pwd_segno)
      : kernel_(kernel), service_(service), pwd_segno_(pwd_segno) {}

  // Password-segment record: [name_hash, password_hash, label, level] per user.
  static constexpr uint32_t kRecordWords = 4;

  Kernel* kernel_;
  Process* service_;
  SegNo pwd_segno_;
  uint32_t records_ = 0;
  uint64_t failed_logins_ = 0;
  uint64_t successful_logins_ = 0;
};

// FNV-1a, used for the simulated one-way password images.
uint64_t Fnv1a(const std::string& text);

}  // namespace multics

#endif  // SRC_USERRING_ANSWERING_SERVICE_H_
