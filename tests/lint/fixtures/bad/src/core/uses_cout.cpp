// Fixture: library code writing to stdout/stderr must trip library-io.
#include <cstdio>
#include <iostream>

#include "highrpm/no_pragma.hpp"  // a consumer: only pragma-once fires there

void bad_cout(int x) { std::cout << x << '\n'; }

void bad_cerr(int x) { std::cerr << x << '\n'; }

void bad_printf(int x) { printf("%d\n", x); }

void bad_fprintf(int x) { fprintf(stderr, "%d\n", x); }
