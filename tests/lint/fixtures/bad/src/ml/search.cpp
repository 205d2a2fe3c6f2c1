// Fixture: the implementation of the orphan ml/search.hpp. It keeps
// neither that header nor data/folds.hpp alive.
#include "highrpm/ml/search.hpp"

#include "highrpm/data/folds.hpp"

namespace highrpm::ml {

int search_best() noexcept { return data::fold_count(); }

}  // namespace highrpm::ml
