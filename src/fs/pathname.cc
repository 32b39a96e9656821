#include "src/fs/pathname.h"

#include <sstream>

namespace multics {

bool ValidEntryName(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLength) {
    return false;
  }
  if (name == "." || name == "..") {
    return false;
  }
  for (char c : name) {
    if (c == '>' || c == '<' || c == '\0' || c == '\n') {
      return false;
    }
  }
  return true;
}

std::string Path::ToString() const {
  if (components.empty()) {
    return ">";
  }
  std::string out;
  for (const std::string& c : components) {
    out += ">";
    out += c;
  }
  return out;
}

Path Path::Parent() const {
  Path parent = *this;
  if (!parent.components.empty()) {
    parent.components.pop_back();
  }
  return parent;
}

Result<Path> Path::Parse(const std::string& text) {
  if (text.empty() || text[0] != '>') {
    return Status::kInvalidArgument;  // Only absolute paths at this layer.
  }
  Path path;
  std::istringstream is(text.substr(1));
  std::string component;
  while (std::getline(is, component, '>')) {
    if (component.empty()) {
      continue;  // ">" root, or stray ">>".
    }
    if (!ValidEntryName(component)) {
      return Status::kInvalidArgument;
    }
    if (path.components.size() >= kMaxPathComponents) {
      return Status::kOutOfRange;
    }
    path.components.push_back(component);
  }
  return path;
}

}  // namespace multics
