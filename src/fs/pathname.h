// Multics pathnames: ">" separates components and the empty path names the
// root, e.g. ">udd>Project>user>prog". Path resolution itself lives in the
// hierarchy (legacy configuration) or in the user ring (kernelized
// configuration, experiment E3); this header is just the syntax.

#ifndef SRC_FS_PATHNAME_H_
#define SRC_FS_PATHNAME_H_

#include <string>
#include <vector>

#include "src/base/result.h"

namespace multics {

inline constexpr size_t kMaxNameLength = 32;
inline constexpr size_t kMaxPathComponents = 16;

// True for a legal entryname: 1..32 chars, no '>' or '<', not "." or "..".
bool ValidEntryName(const std::string& name);

struct Path {
  std::vector<std::string> components;  // Empty means the root.

  bool IsRoot() const { return components.empty(); }
  std::string ToString() const;
  std::string Leaf() const { return components.empty() ? "" : components.back(); }
  Path Parent() const;

  static Result<Path> Parse(const std::string& text);

  bool operator==(const Path&) const = default;
};

}  // namespace multics

#endif  // SRC_FS_PATHNAME_H_
