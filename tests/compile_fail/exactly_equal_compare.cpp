// Positive control for exact_double_compare.cpp: the same compare through
// hero::exactly_equal MUST compile, or the harness itself is broken.
#include "common/units.hpp"

bool same_deadline(hero::Time a, hero::Time b) {
  return hero::exactly_equal(a, b);
}
