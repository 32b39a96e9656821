// Access control lists, after Saltzer, "Protection and the Control of
// Sharing in Multics" (CACM 17,7 1974). A principal is person.project.tag;
// ACL entries may wildcard any component and are matched first-hit in order,
// most-specific first.

#ifndef SRC_FS_ACL_H_
#define SRC_FS_ACL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"

namespace multics {

struct Principal {
  std::string person;
  std::string project;
  std::string tag = "a";  // Interactive by default.

  std::string ToString() const { return person + "." + project + "." + tag; }
  bool operator==(const Principal&) const = default;

  static Result<Principal> Parse(const std::string& text);
};

// A principal's spelling as the kernel's audit log interned it.
using PrincipalId = uint32_t;

// Segment access modes as a bitmask.
enum SegmentMode : uint8_t {
  kModeNull = 0,
  kModeRead = 1 << 0,
  kModeWrite = 1 << 1,
  kModeExecute = 1 << 2,
};

// Directory access modes.
enum DirMode : uint8_t {
  kDirNull = 0,
  kDirStatus = 1 << 0,  // List entries and read attributes.
  kDirModify = 1 << 1,  // Delete entries, change attributes/ACLs.
  kDirAppend = 1 << 2,  // Create new entries.
};

std::string SegmentModeString(uint8_t modes);  // e.g. "rw-" / "r-e"
std::string DirModeString(uint8_t modes);      // e.g. "sma"
Result<uint8_t> ParseSegmentModes(const std::string& text);

struct AclEntry {
  std::string person = "*";
  std::string project = "*";
  std::string tag = "*";
  uint8_t modes = kModeNull;

  bool Matches(const Principal& principal) const;
  bool operator==(const AclEntry&) const = default;
  std::string NamePart() const { return person + "." + project + "." + tag; }
  // Specificity: number of non-wildcard components, for match ordering.
  int Specificity() const;
};

class Acl {
 public:
  Acl() = default;

  // Adds or replaces the entry with the same person, project and tag.
  void Set(const AclEntry& entry);
  // Removes the entry with exactly these three fields; kNotFound otherwise.
  Status Remove(const std::string& person, const std::string& project, const std::string& tag);

  // The modes granted to `principal`: first match in specificity order
  // (exact beats wildcard), as Multics resolved multiple applicable entries.
  uint8_t EffectiveModes(const Principal& principal) const;

  const std::vector<AclEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<AclEntry> entries_;  // Kept sorted by descending specificity.
};

}  // namespace multics

#endif  // SRC_FS_ACL_H_
