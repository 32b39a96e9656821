// The security kernel: "a minimal, protected central core of software whose
// correct operation is necessary and sufficient to guarantee enforcement
// within a system of the security model."
//
// The Kernel owns the substrates (machine, memory hierarchy, storage system,
// processes, network) and exposes the supervisor's user-callable surface as
// *gates*. Which gates exist depends on the KernelConfiguration: the legacy
// configurations include the dynamic linker, reference-name management,
// pathname addressing, and per-device I/O inside the kernel; the kernelized
// configuration removes them (they become user-ring libraries in
// src/userring/), shrinking the gate table — the very effect experiments
// E1/E3/E12 measure.
//
// Every gate entry charges the configured ring-crossing cost (hardware 6180
// vs software 645 — E2), records the call in the gate table, and routes all
// access decisions through the reference monitor.

#ifndef SRC_CORE_KERNEL_H_
#define SRC_CORE_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/core/config.h"
#include "src/core/flaw_registry.h"
#include "src/core/gate.h"
#include "src/core/reference_monitor.h"
#include "src/fs/hierarchy.h"
#include "src/fs/kst.h"
#include "src/fs/segment_store.h"
#include "src/hw/processor.h"
#include "src/link/linker.h"
#include "src/mem/page_control_parallel.h"
#include "src/mem/page_control_sequential.h"
#include "src/meter/host_profile.h"
#include "src/meter/trace.h"
#include "src/net/device_io.h"
#include "src/net/network.h"
#include "src/proc/traffic_controller.h"

namespace multics {

struct KernelParams {
  MachineConfig machine{.core_frames = 256, .interrupt_lines = 32,
                        .ring_mode = RingMode::kHardware6180, .costs = DefaultCostModel()};
  uint32_t bulk_pages = 512;
  uint32_t disk_pages = 32768;
  uint32_t ast_capacity = 128;
  uint32_t virtual_processors = 16;
  std::string replacement_policy = "clock";
  uint32_t circular_buffer_words = 2048;  // Legacy network input buffers.
  uint32_t net_buffer_max_pages = 64;     // Infinite-buffer segment limit.
  ParallelPageControlConfig parallel_page_control{};
  KernelConfiguration config = KernelConfiguration::Kernelized6180();
};

// What Initiate reports back: either a segment number, or "this entry is a
// link — chase it yourself" (the kernelized design pushes link chasing to
// the user ring).
struct InitiateResult {
  SegNo segno = kInvalidSegNo;
  bool is_link = false;
  std::string link_target;
  bool is_directory = false;
  uint8_t granted_modes = 0;
};

struct BranchStatus {
  Uid uid = kInvalidUid;
  bool is_directory = false;
  uint32_t pages = 0;
  std::string mode_string;
  std::string label;
  std::string author;
  uint32_t names = 0;
};

class Kernel {
 public:
  explicit Kernel(const KernelParams& params);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Subsystem access ---------------------------------------------------
  Machine& machine() { return machine_; }
  const KernelConfiguration& config() const { return params_.config; }
  const KernelParams& params() const { return params_; }
  GateTable& gates() { return gates_; }
  AuditLog& audit() { return audit_; }
  ReferenceMonitor& monitor() { return monitor_; }
  SegmentStore& store() { return store_; }
  Hierarchy& hierarchy() { return hierarchy_; }
  PageControl& page_control() { return *page_control_; }
  TrafficController& traffic() { return traffic_; }
  NetworkAttachment& network() { return network_; }
  FlawRegistry& flaws() { return flaws_; }
  // The active CPU's processor. On a multiprocessor the binding follows the
  // traffic controller's dispatch decision; RunAs binds the process to
  // whichever CPU is active when it runs.
  Processor& cpu() { return machine_.active_processor(); }
  // Paging devices, exposed for fault-injection observability (retry /
  // failed-transfer counters) in tests and benches.
  PagingDevice& bulk_store() { return bulk_; }
  PagingDevice& disk() { return disk_; }

  // Ring-0 faults taken while kernel code chewed on user input (E10): in a
  // real system each of these is a crash or worse.
  uint64_t kernel_faults() const { return kernel_faults_; }

  // --- Process management --------------------------------------------------
  // Creates the initial processes at boot (no caller, no gate).
  Result<Process*> BootstrapProcess(const std::string& name, const Principal& principal,
                                    const MlsLabel& clearance,
                                    std::unique_ptr<Task> program = nullptr);
  // Gate: proc_create. The child inherits the caller's principal unless the
  // caller runs in ring <= 1 (privileged services may name any principal).
  Result<Process*> ProcCreate(Process& caller, const std::string& name,
                              const Principal& principal, const MlsLabel& clearance,
                              std::unique_ptr<Task> program);
  // Gate: proc_destroy. Terminates every segment the process knows and
  // erases it; any Process* to it dangles afterwards. A process cannot
  // destroy itself from inside its own step (kFailedPrecondition).
  Status ProcDestroy(Process& caller, ProcessId pid);
  Result<std::string> ProcGetInfo(Process& caller, ProcessId pid);
  // proc_metering: the caller's own resource consumption.
  Result<std::string> ProcMetering(Process& caller);

  // Binds the simulated CPU to a process (address space, ring, fault sink).
  Status RunAs(Process& process);
  Process* current() const { return current_; }

  // --- Gates: segment-number address space (the kernelized core) ----------
  Result<SegNo> RootDir(Process& caller);
  Result<InitiateResult> Initiate(Process& caller, SegNo dir_segno, const std::string& name);
  Status Terminate(Process& caller, SegNo segno);
  Result<uint32_t> SegGetLength(Process& caller, SegNo segno);  // In pages.
  Status SegSetLength(Process& caller, SegNo segno, uint32_t pages);
  Result<BranchStatus> FsStatus(Process& caller, SegNo dir_segno, const std::string& name);
  // kst_status: the list of (segno, uid) pairs this process knows.
  Result<std::vector<std::pair<SegNo, Uid>>> KstStatus(Process& caller);

  // Ring-0 word access used by the in-kernel linker and system
  // initialization: bypasses ring brackets and permission bits (it *is* the
  // kernel) but not bounds.
  Result<Word> KernelReadWord(Process& process, SegNo segno, WordOffset offset);
  Status KernelWriteWord(Process& process, SegNo segno, WordOffset offset, Word value);

  // --- Gates: pathname addressing (legacy only; E3) ------------------------
  Result<SegNo> InitiatePath(Process& caller, const std::string& path);
  // initiate_count_path: initiate and report how many segments are known.
  Result<std::pair<SegNo, uint32_t>> InitiateCountPath(Process& caller, const std::string& path);
  Status TerminatePath(Process& caller, const std::string& path);
  // terminate_file_path: terminate and drop every reference name for it.
  Status TerminateFilePath(Process& caller, const std::string& path);
  Result<BranchStatus> FsStatusPath(Process& caller, const std::string& path);
  Result<SegNo> CreateSegmentPath(Process& caller, const std::string& path,
                                  const SegmentAttributes& attrs);
  Status DeletePath(Process& caller, const std::string& path);
  Result<std::vector<std::string>> ListPath(Process& caller, const std::string& path);
  Status SetAclPath(Process& caller, const std::string& path, const AclEntry& entry);
  Status ChnamePath(Process& caller, const std::string& path, const std::string& new_name);
  Result<uint32_t> QuotaReadPath(Process& caller, const std::string& path);

  // --- Gates: reference names & search (legacy only; E3) -------------------
  Status NameBind(Process& caller, const std::string& refname, SegNo segno);
  Result<SegNo> NameLookup(Process& caller, const std::string& refname);
  Status NameUnbind(Process& caller, const std::string& refname);
  Result<std::vector<std::string>> NameList(Process& caller);
  Status SetSearchRules(Process& caller, const std::vector<std::string>& rules);
  Result<std::vector<std::string>> GetSearchRules(Process& caller);
  // fs_search: resolve `refname` through the search rules and initiate it.
  Result<SegNo> SearchInitiate(Process& caller, const std::string& refname);
  Result<std::string> PathnameOf(Process& caller, SegNo segno);
  // terminate_ref_name: unbind the name and terminate its segment.
  Status TerminateRefName(Process& caller, const std::string& refname);
  // expand_pathname: canonicalize a path string in ring 0 (legacy).
  Result<std::string> ExpandPathname(Process& caller, const std::string& path);

  // --- Gates: dynamic linker (legacy only; E1/E10) -------------------------
  Result<uint32_t> LinkSnapAll(Process& caller, SegNo object);
  Result<std::pair<SegNo, WordOffset>> LinkSnapOne(Process& caller, SegNo object,
                                                   uint32_t index);
  Result<WordOffset> LinkLookupSymbol(Process& caller, SegNo object, const std::string& symbol);
  Result<uint32_t> LinkGetEntryBound(Process& caller, SegNo object);
  Result<std::vector<std::string>> LinkGetDefs(Process& caller, SegNo object);
  Status LinkUnsnap(Process& caller, SegNo object);
  // combine_linkage: snap the links of several objects in one call.
  Result<uint32_t> CombineLinkage(Process& caller, const std::vector<SegNo>& objects);
  Status SetLinkagePtr(Process& caller, SegNo object, WordOffset lp);
  Result<WordOffset> GetLinkagePtr(const Process& caller, SegNo object) const;

  // --- Gates: file system (segment-number directory interface) ------------
  Result<Uid> FsCreateSegment(Process& caller, SegNo dir_segno, const std::string& name,
                              const SegmentAttributes& attrs);
  Result<Uid> FsCreateDirectory(Process& caller, SegNo dir_segno, const std::string& name,
                                const SegmentAttributes& attrs, uint32_t quota_pages = 0);
  Status FsCreateLink(Process& caller, SegNo dir_segno, const std::string& name,
                      const std::string& target);
  Status FsDelete(Process& caller, SegNo dir_segno, const std::string& name);
  Status FsRename(Process& caller, SegNo dir_segno, const std::string& from,
                  const std::string& to);
  Status FsAddName(Process& caller, SegNo dir_segno, const std::string& existing,
                   const std::string& additional);
  Result<std::vector<std::string>> FsList(Process& caller, SegNo dir_segno);
  Status FsSetAcl(Process& caller, SegNo dir_segno, const std::string& name,
                  const AclEntry& entry);
  Status FsRemoveAclEntry(Process& caller, SegNo dir_segno, const std::string& name,
                          const std::string& person, const std::string& project,
                          const std::string& tag);
  Result<std::vector<std::string>> FsListAcl(Process& caller, SegNo dir_segno,
                                             const std::string& name);
  Status FsSetRingBrackets(Process& caller, SegNo dir_segno, const std::string& name,
                           const RingBrackets& brackets, bool gate, uint32_t gate_entries);
  Status FsSetMaxLength(Process& caller, SegNo dir_segno, const std::string& name,
                        uint32_t max_pages);
  Status FsSetQuota(Process& caller, SegNo dir_segno, uint32_t quota_pages);
  Result<uint32_t> FsGetQuota(Process& caller, SegNo dir_segno);

  // --- Gates: IPC ----------------------------------------------------------
  // The channel is guarded by a segment: wakeup requires write access to the
  // guard; receiving requires read — "its use can be controlled with the
  // standard memory protection mechanisms of the kernel."
  Result<ChannelId> IpcCreateChannel(Process& caller, SegNo guard_segno);
  Status IpcDestroyChannel(Process& caller, ChannelId channel);
  Status IpcWakeup(Process& caller, ChannelId channel, uint64_t data);
  // Receive path used from inside Task::Step.
  Result<bool> IpcAwait(Process& caller, TaskContext& ctx, ChannelId channel);
  // ipc_channel_status: events queued on the channel (read access required).
  Result<uint64_t> IpcChannelStatus(Process& caller, ChannelId channel);

  // --- Gates: device I/O (legacy only; E12) --------------------------------
  Result<std::string> TtyRead(Process& caller, uint32_t line);
  Status TtyWrite(Process& caller, uint32_t line, const std::string& text);
  Result<std::string> CardRead(Process& caller);
  Status PrinterWrite(Process& caller, const std::string& line);
  Status PrinterEject(Process& caller);
  Result<std::string> TapeRead(Process& caller);
  Status TapeWrite(Process& caller, const std::string& record);
  Status TapeRewind(Process& caller);
  Status TapeSkip(Process& caller, uint32_t records);
  // Device access for tests/examples (simulated operator side).
  TtyLine& tty(uint32_t line) { return *ttys_[line]; }
  CardReader& card_reader() { return *card_reader_; }
  LinePrinter& printer() { return *printer_; }
  TapeDrive& tape() { return *tape_; }
  bool has_device_io() const { return !ttys_.empty(); }

  // --- Gates: network -------------------------------------------------------
  Result<ConnId> NetOpen(Process& caller, const std::string& remote);
  Status NetClose(Process& caller, ConnId conn);
  Status NetWrite(Process& caller, ConnId conn, const std::string& data);
  Result<std::string> NetRead(Process& caller, ConnId conn);
  Result<uint64_t> NetStatus(Process& caller, ConnId conn);  // Queued messages.

  // --- Gates: admin ----------------------------------------------------------
  Status Shutdown(Process& caller);
  Result<std::string> MeteringInfo(Process& caller);
  // Legacy login: the big privileged authenticator (removed in kernelized
  // config, where login is the subsystem-entry mechanism in the user ring).
  Result<Process*> LoginLegacy(Process& caller, const std::string& person,
                               const std::string& project, const std::string& password,
                               const MlsLabel& clearance);
  // Legacy logout: ends a session created by LoginLegacy, destroying its
  // process as proc_destroy does. Unprivileged callers may only log out
  // sessions running under their own principal.
  Status Logout(Process& caller, ProcessId session);
  // Password registry (set up by system initialization).
  void RegisterUser(const std::string& person, const std::string& project,
                    const std::string& password, const MlsLabel& max_clearance);
  Result<MlsLabel> CheckPassword(const std::string& person, const std::string& project,
                                 const std::string& password) const;
  // Enumeration for the image generator ("backup daemon" privilege).
  template <typename Fn>
  void ForEachUser(Fn&& fn) const {
    for (const auto& [key, record] : users_) {
      auto dot = key.find('.');
      fn(key.substr(0, dot), key.substr(dot + 1), record.password, record.max_clearance);
    }
  }

  // Backup/dumper read path: kernel-authority word read by UID, used by the
  // memory-image generator and the backup daemon.
  Result<Word> DumpReadWord(Uid uid, WordOffset offset);

  // Retained-state census: trailers across all segments, and fault sinks
  // (one per live process).
  size_t trailer_count() const;
  size_t fault_sink_count() const { return fault_sinks_.size(); }

  // --- E3 metric -------------------------------------------------------------
  // Bytes of protected (ring-0) state the kernel holds to manage this
  // process's address space. In the legacy configuration that includes the
  // reference-name table, search rules, and per-segment pathname strings.
  size_t KernelAddressSpaceStateBytes(const Process& process) const;
  // Count of protected operations (gate-internal steps) executed for
  // address-space management so far.
  uint64_t address_space_ops() const { return address_space_ops_; }

 private:
  friend class KernelFaultSink;
  friend class KernelLinkEnv;

  // Per-process legacy naming state (kernel-resident in legacy configs).
  struct LegacyNamingState {
    std::unordered_map<std::string, SegNo> reference_names;
    std::vector<std::string> search_rules;
    std::unordered_map<SegNo, std::string> pathnames;
    std::unordered_map<SegNo, WordOffset> linkage_ptrs;
  };

  Result<SegNo> SearchInitiateInternal(Process& caller, const std::string& refname);

  // Gate prologue: existence check (kNotAGate when the mechanism is not in
  // this configuration's kernel) and call accounting. The ring-crossing
  // charge is separate (ChargeGateCrossing) so GateSpan can land it inside
  // the gate's causal span and the crossing shows up as gate self-cycles.
  // `gate_index` (optional) receives the gate's index in the table, for
  // per-gate cached metering state; untouched on refusal.
  Status EnterGate(Process& caller, StaticName name, int32_t* gate_index = nullptr);
  void ChargeGateCrossing(uint32_t arg_words);

  // Initiation tail shared by all addressing flavours.
  Result<SegNo> InitiateKnown(Process& caller, Uid uid, StaticName operation);
  // Connects (or reconnects) the SDW for a known segment, adding its trailer
  // on the first connection.
  Status ConnectSdw(Process& process, SegNo segno, Uid uid);
  // Faults every SDW the segment's trailers name (setfaults).
  void DisconnectSdwsFor(Uid uid);

  Result<Uid> ResolveDirSegno(Process& caller, SegNo dir_segno) const;
  Result<Uid> ResolvePathChecked(Process& caller, const std::string& path, StaticName op);

  // Drops one initiation (or, when force, all of them): the SDW, KST entry,
  // store reference, trailer, and legacy naming residue go away only when
  // the usage count reaches zero.
  Status ReleaseSegno(Process& caller, SegNo segno, bool force);

  LegacyNamingState& naming(const Process& process);

  // The teardown behind proc_destroy and logout: checks the caller may end
  // `pid` (auditing a refusal under `operation`), force-releases every KST
  // entry, drops the legacy naming state and fault sink, unbinds the process
  // from every CPU and from current_, and has the traffic controller erase it.
  Status DestroyProcess(Process& caller, ProcessId pid, StaticName operation);

  void RegisterGates();

  KernelParams params_;
  Machine machine_;
  CoreMap core_map_;
  PagingDevice bulk_;
  PagingDevice disk_;
  ActiveSegmentTable ast_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unique_ptr<PageControl> page_control_;
  SegmentStore store_;
  Hierarchy hierarchy_;
  GateTable gates_;
  AuditLog audit_;
  ReferenceMonitor monitor_;
  FlawRegistry flaws_;
  TrafficController traffic_;
  NetworkAttachment network_;

  // Legacy device stacks (only in per_device_io configurations).
  std::vector<std::unique_ptr<TtyLine>> ttys_;
  std::unique_ptr<CardReader> card_reader_;
  std::unique_ptr<LinePrinter> printer_;
  std::unique_ptr<TapeDrive> tape_;

  // Segment trailers, indexed by uid (uids are dense from 1): the
  // (process, segno) pairs whose descriptor segment may hold an SDW for the
  // segment, as Multics' trailer entries recorded them for setfaults. A
  // trailer lives from a known segment's first connection until the process
  // releases the segment number; the KST entry keeps its slot, so release
  // swaps the last trailer into the hole. Order is free to vary:
  // disconnection only flips SDW flags, which commutes.
  struct Trailer {
    Process* process;
    SegNo segno;
  };
  std::vector<std::vector<Trailer>> trailers_;
  std::unordered_map<ProcessId, std::unique_ptr<FaultSink>> fault_sinks_;
  std::unordered_map<ProcessId, LegacyNamingState> legacy_naming_;
  std::unordered_map<ConnId, std::unique_ptr<ActiveSegment>> net_buffer_segments_;

  struct UserRecord {
    std::string password;
    MlsLabel max_clearance;
  };
  std::unordered_map<std::string, UserRecord> users_;

  Process* current_ = nullptr;
  uint64_t kernel_faults_ = 0;
  uint64_t address_space_ops_ = 0;

  friend class GateSpan;
};

// RAII gate prologue: performs EnterGate (existence check, call accounting,
// ring-crossing charge) and, when the gate exists, opens a causal span —
// kGateEnter/kGateExit bracketing the gate body, nested under whatever span
// the caller was in — attributed to the calling process at ring 0 (where
// the gate body runs), and feeds the elapsed cycles into the meter's
// per-gate distribution "gate/<name>". `name` is a StaticName because the
// flight recorder keeps the pointer.
class GateSpan {
 public:
  GateSpan(Kernel* kernel, Process& caller, StaticName name, uint32_t arg_words = 2);
  ~GateSpan();

  GateSpan(const GateSpan&) = delete;
  GateSpan& operator=(const GateSpan&) = delete;

  Status status() const { return status_; }

 private:
  // First member: the host span opens before the gate prologue runs and
  // closes after everything else, so kGateCall covers the whole gate —
  // nested instrumented subsystems (page walks, locks, meter) subtract out
  // of its self time. Host-clock only; never touches simulated state.
  HostSpan host_span_{HostSubsystem::kGateCall};
  Kernel* kernel_;
  StaticName name_;
  int32_t gate_index_ = -1;  // Set by EnterGate when the gate exists.
  Status status_;
  TraceContext* ctx_ = nullptr;  // Context the span opened on; null if none.
  Attribution saved_attribution_{};
  bool locked_ = false;  // Global-lock mode: this span holds the kernel lock.
};

// Gate-body prologue: enter the gate (returning its error on refusal) and
// keep the RAII span alive for the rest of the enclosing scope.
#define MX_ENTER_GATE(caller, name, ...)                                   \
  GateSpan mx_gate_span(this, (caller), (name)__VA_OPT__(, ) __VA_ARGS__); \
  MX_RETURN_IF_ERROR(mx_gate_span.status())

}  // namespace multics

#endif  // SRC_CORE_KERNEL_H_
