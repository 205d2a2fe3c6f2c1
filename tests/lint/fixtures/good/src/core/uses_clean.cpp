// Fixture: the consumer that keeps the good tree's one public header,
// clean.hpp, off the orphan-header list.
#include "highrpm/clean.hpp"

namespace highrpm {

int twice_clean() noexcept { return 2 * clean_value(); }

}  // namespace highrpm
