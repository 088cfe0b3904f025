// Compile-fail fixture: an exact ==/!= on a double must not build under
// the -Werror=float-equal that hero_warnings sets; a deliberate exact
// compare goes through hero::exactly_equal. exactly_equal_compare.cpp is
// the positive control.
#include "common/units.hpp"

bool same_deadline(hero::Time a, hero::Time b) {
  return a == b;  // must not compile: exact floating-point compare
}
