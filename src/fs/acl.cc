#include "src/fs/acl.h"

#include <algorithm>

namespace multics {

Result<Principal> Parse3(const std::string& text) {
  // "person.project[.tag[...]]": a missing tag field defaults to "a", an
  // explicitly empty one ("p.proj..x") is an error, and anything after the
  // third field is ignored — the same fields the old getline loop produced,
  // minus its stringstream allocation (logins parse principals in bulk).
  const size_t d1 = text.find('.');
  if (d1 == std::string::npos || d1 + 1 >= text.size()) {
    return Status::kInvalidArgument;
  }
  std::string person = text.substr(0, d1);
  const size_t d2 = text.find('.', d1 + 1);
  std::string project =
      d2 == std::string::npos ? text.substr(d1 + 1) : text.substr(d1 + 1, d2 - d1 - 1);
  std::string tag = "a";
  if (d2 != std::string::npos && d2 + 1 < text.size()) {
    const size_t d3 = text.find('.', d2 + 1);
    tag = d3 == std::string::npos ? text.substr(d2 + 1) : text.substr(d2 + 1, d3 - d2 - 1);
  }
  if (person.empty() || project.empty() || tag.empty()) {
    return Status::kInvalidArgument;
  }
  return Principal{person, project, tag};
}

Result<Principal> Principal::Parse(const std::string& text) { return Parse3(text); }

std::string SegmentModeString(uint8_t modes) {
  std::string out = "---";
  if (modes & kModeRead) {
    out[0] = 'r';
  }
  if (modes & kModeWrite) {
    out[1] = 'w';
  }
  if (modes & kModeExecute) {
    out[2] = 'e';
  }
  return out;
}

std::string DirModeString(uint8_t modes) {
  std::string out = "---";
  if (modes & kDirStatus) {
    out[0] = 's';
  }
  if (modes & kDirModify) {
    out[1] = 'm';
  }
  if (modes & kDirAppend) {
    out[2] = 'a';
  }
  return out;
}

Result<uint8_t> ParseSegmentModes(const std::string& text) {
  uint8_t modes = kModeNull;
  for (char c : text) {
    switch (c) {
      case 'r':
        modes |= kModeRead;
        break;
      case 'w':
        modes |= kModeWrite;
        break;
      case 'e':
        modes |= kModeExecute;
        break;
      case '-':
      case 'n':
        break;
      default:
        return Status::kInvalidArgument;
    }
  }
  return modes;
}

namespace {

bool ComponentMatches(const std::string& pattern, const std::string& value) {
  return pattern == "*" || pattern == value;
}

// Fields, not the dotted spelling: "Jones.Faculty" + "a" and "Jones" +
// "Faculty.a" spell alike but name different entries.
bool SameName(const AclEntry& entry, const std::string& person, const std::string& project,
              const std::string& tag) {
  return entry.person == person && entry.project == project && entry.tag == tag;
}

}  // namespace

bool AclEntry::Matches(const Principal& principal) const {
  return ComponentMatches(person, principal.person) &&
         ComponentMatches(project, principal.project) && ComponentMatches(tag, principal.tag);
}

int AclEntry::Specificity() const {
  return (person != "*" ? 4 : 0) + (project != "*" ? 2 : 0) + (tag != "*" ? 1 : 0);
}

void Acl::Set(const AclEntry& entry) {
  for (auto& existing : entries_) {
    if (SameName(existing, entry.person, entry.project, entry.tag)) {
      existing.modes = entry.modes;
      return;
    }
  }
  entries_.push_back(entry);
  std::stable_sort(entries_.begin(), entries_.end(), [](const AclEntry& a, const AclEntry& b) {
    return a.Specificity() > b.Specificity();
  });
}

Status Acl::Remove(const std::string& person, const std::string& project,
                   const std::string& tag) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (SameName(*it, person, project, tag)) {
      entries_.erase(it);
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

uint8_t Acl::EffectiveModes(const Principal& principal) const {
  for (const AclEntry& entry : entries_) {
    if (entry.Matches(principal)) {
      return entry.modes;  // First (most specific) match wins, even if null.
    }
  }
  return kModeNull;
}

}  // namespace multics
