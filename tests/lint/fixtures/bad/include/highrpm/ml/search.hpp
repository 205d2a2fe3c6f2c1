// Fixture: a public header that only its own implementation
// (src/ml/search.cpp) and a test include must trip orphan-header.
#pragma once

namespace highrpm::ml {

int search_best() noexcept;

}  // namespace highrpm::ml
