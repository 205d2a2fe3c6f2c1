// Fixture: a header whose only includer is the implementation of an orphan
// header (src/ml/search.cpp) is an orphan too and must trip orphan-header.
#pragma once

namespace highrpm::data {

int fold_count() noexcept;

}  // namespace highrpm::data
