// Fixture: a test including ml/search.hpp is no consumer for orphan-header.
#include "highrpm/ml/search.hpp"

int main() { return highrpm::ml::search_best() == 0 ? 0 : 1; }
