#include "src/modelcheck/oracle.h"

#include <algorithm>

namespace multics::mc {

std::string OracleModeString(uint8_t modes) {
  std::string out = "---";
  if (modes & kOrRead) out[0] = 'r';
  if (modes & kOrWrite) out[1] = 'w';
  if (modes & kOrExecute) out[2] = 'e';
  return out;
}

namespace {

bool ComponentMatches(const std::string& pattern, const std::string& value) {
  return pattern == "*" || pattern == value;
}

bool EntryMatches(const OracleAclEntry& entry, const OraclePrincipal& who) {
  return ComponentMatches(entry.person, who.person) &&
         ComponentMatches(entry.project, who.project) && ComponentMatches(entry.tag, who.tag);
}

// Specificity order: an exact person outranks an exact project outranks an
// exact tag, so the three booleans read as a binary number.
int Specificity(const OracleAclEntry& entry) {
  return (entry.person != "*" ? 4 : 0) + (entry.project != "*" ? 2 : 0) +
         (entry.tag != "*" ? 1 : 0);
}

}  // namespace

uint8_t OracleAclModes(const std::vector<OracleAclEntry>& acl, const OraclePrincipal& who) {
  // First match in descending specificity wins, even when it grants nothing.
  // Ties keep insertion order (stable), matching Multics' resolution rule.
  int best_specificity = -1;
  size_t best = acl.size();
  for (size_t i = 0; i < acl.size(); ++i) {
    if (!EntryMatches(acl[i], who)) continue;
    const int s = Specificity(acl[i]);
    if (s > best_specificity) {
      best_specificity = s;
      best = i;
    }
  }
  return best < acl.size() ? acl[best].modes : 0;
}

void OracleAclSet(std::vector<OracleAclEntry>* acl, const OracleAclEntry& entry) {
  for (OracleAclEntry& existing : *acl) {
    if (existing.person == entry.person && existing.project == entry.project &&
        existing.tag == entry.tag) {
      existing.modes = entry.modes;
      return;
    }
  }
  acl->push_back(entry);
}

bool OracleAclRemove(std::vector<OracleAclEntry>* acl, const std::string& person,
                     const std::string& project, const std::string& tag) {
  for (auto it = acl->begin(); it != acl->end(); ++it) {
    if (it->person == person && it->project == project && it->tag == tag) {
      acl->erase(it);
      return true;
    }
  }
  return false;
}

bool OracleDominates(const OracleLabel& a, const OracleLabel& b) {
  return a.level >= b.level && (b.categories & ~a.categories) == 0;
}

bool OracleCanRead(const OracleLabel& subject, const OracleLabel& object) {
  return OracleDominates(subject, object);
}

bool OracleCanWrite(const OracleLabel& subject, const OracleLabel& object) {
  return OracleDominates(object, subject);
}

bool OracleRingAllowsWrite(int ring, const OracleBrackets& b) { return ring <= b.r1; }
bool OracleRingAllowsRead(int ring, const OracleBrackets& b) { return ring <= b.r2; }
bool OracleRingAllowsExecute(int ring, const OracleBrackets& b) {
  return b.r1 <= ring && ring <= b.r2;
}

uint8_t OracleSegmentModes(const OracleObject& object, const OracleSubject& subject) {
  uint8_t modes = OracleAclModes(object.acl, subject.principal);
  if (!subject.trusted) {
    if (!OracleCanRead(subject.clearance, object.label)) {
      modes &= static_cast<uint8_t>(~(kOrRead | kOrExecute));
    }
    if (!OracleCanWrite(subject.clearance, object.label)) {
      modes &= static_cast<uint8_t>(~kOrWrite);
    }
  }
  return modes;
}

uint8_t OracleDirectoryModes(const OracleObject& object, const OracleSubject& subject) {
  uint8_t modes = OracleAclModes(object.acl, subject.principal);
  if (!subject.trusted) {
    if (!OracleCanRead(subject.clearance, object.label)) {
      modes &= static_cast<uint8_t>(~kOrDirStatus);
    }
    if (!OracleCanWrite(subject.clearance, object.label)) {
      modes &= static_cast<uint8_t>(~(kOrDirModify | kOrDirAppend));
    }
  }
  return modes;
}

void OracleWorld::InitConnections() {
  conn.assign(subjects.size(), std::vector<OracleConnection>(objects.size()));
}

bool OracleWorld::ExpectInitiateOk(size_t p, size_t s) const {
  // The gate needs status on the containing directory, then nonzero segment
  // modes; a zero-mode derivation is the kAccessDenied path.
  if ((OracleDirectoryModes(root, subjects[p]) & kOrDirStatus) == 0) return false;
  return OracleSegmentModes(objects[s], subjects[p]) != 0;
}

bool OracleWorld::ExpectDirModifyOk(size_t p) const {
  return (OracleDirectoryModes(root, subjects[p]) & kOrDirModify) != 0;
}

bool OracleWorld::ExpectSetLengthOk(size_t p, size_t s) const {
  // Segment must be known to the caller (any usage) and writable under
  // current policy; the kernel re-checks write access on every length change.
  return conn[p][s].usage > 0 &&
         (OracleSegmentModes(objects[s], subjects[p]) & kOrWrite) != 0;
}

void OracleWorld::OnInitiate(size_t p, size_t s) {
  OracleConnection& c = conn[p][s];
  ++c.usage;
  c.connected = true;
  c.modes = OracleSegmentModes(objects[s], subjects[p]);
}

void OracleWorld::OnTerminate(size_t p, size_t s) {
  OracleConnection& c = conn[p][s];
  if (c.usage == 0) return;
  if (--c.usage == 0) {
    c.connected = false;
    c.modes = 0;
  }
}

void OracleWorld::DisconnectAll(size_t s) {
  // Revocation: every holder's descriptor is invalidated; access is
  // re-derived from the new policy at the next initiation or fault.
  for (std::vector<OracleConnection>& row : conn) {
    row[s].connected = false;
    row[s].modes = 0;
  }
}

void OracleWorld::OnAclSet(size_t s, const OracleAclEntry& entry) {
  OracleAclSet(&objects[s].acl, entry);
  DisconnectAll(s);
}

void OracleWorld::OnAclRemove(size_t s, const std::string& person, const std::string& project,
                              const std::string& tag) {
  OracleAclRemove(&objects[s].acl, person, project, tag);
  DisconnectAll(s);
}

void OracleWorld::OnSetBrackets(size_t s, const OracleBrackets& brackets) {
  objects[s].brackets = brackets;
  DisconnectAll(s);
}

void OracleWorld::OnSetLength(size_t p, size_t s, uint32_t pages) {
  objects[s].pages = pages;
  // Every holder's descriptor carries the old length, so all of them are
  // disconnected; the caller's own is rebuilt in the same gate.
  DisconnectAll(s);
  OracleConnection& c = conn[p][s];
  if (c.usage > 0) {
    c.connected = true;
    c.modes = OracleSegmentModes(objects[s], subjects[p]);
  }
}

}  // namespace multics::mc
