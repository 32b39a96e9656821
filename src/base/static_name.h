// StaticName: a name that may be kept by pointer for the whole run.
//
// The meter's flight recorder stores event names by pointer, and the
// lookaside caches in front of the meter's and the machine's counters
// (StaticNameCache) key on the pointer, never the characters. So every such
// name must have static storage and stable contents. The constructor is
// consteval and takes only a char array, so the name must be a string
// literal or another array with static storage; a `const char*` variable, a
// std::string, or a stack buffer does not compile.

#ifndef SRC_BASE_STATIC_NAME_H_
#define SRC_BASE_STATIC_NAME_H_

#include <cstddef>

namespace multics {

class StaticName {
 public:
  template <size_t N>
  consteval StaticName(const char (&name)[N]) : name_(name) {}

  constexpr const char* c_str() const { return name_; }

 private:
  const char* name_;
};

}  // namespace multics

#endif  // SRC_BASE_STATIC_NAME_H_
