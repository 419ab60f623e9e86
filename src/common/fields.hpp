// One field list per counter struct.
//
// A counter struct (FaultStats, LifecycleStats, DegradationStats,
// ResponseMatrix::CacheStats) names each member once more, right under
// its declaration, in a `static constexpr auto kFields` tuple of field()
// entries. Every per-field operation walks that list -- operator+=, the
// snapshot codec's stats records and the serve scrape -- so a counter
// added to the struct and its list shows up in all of them with no other
// edit. operator== is the defaulted one, which already covers every
// member.
#pragma once

#include <tuple>
#include <type_traits>

namespace talon {

/// One entry of a field list: a member and the name it is exported
/// under. `label` is empty except where several members export as ONE
/// family told apart by a label, e.g. time_in_state{state="up"}; such
/// entries share `name`.
template <class T, class M>
struct Field {
  const char* name;
  M T::*member;
  const char* label{""};
};

template <class T, class M>
constexpr Field<T, M> field(const char* name, M T::*member, const char* label = "") {
  return Field<T, M>{name, member, label};
}

/// f(entry, value) for every entry of T::kFields in list order, where
/// `value` is obj's member (const when obj is).
template <class T, class F>
constexpr void for_each_field(T& obj, F&& f) {
  std::apply([&](const auto&... entry) { (f(entry, obj.*entry.member), ...); },
             std::remove_const_t<T>::kFields);
}

/// Member-wise `into += other`, for every struct with a field list.
template <class T>
  requires requires { T::kFields; }
constexpr T& operator+=(T& into, const T& other) {
  for_each_field(into, [&](const auto& entry, auto& value) {
    value += other.*entry.member;
  });
  return into;
}

}  // namespace talon
