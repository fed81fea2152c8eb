// FIXTURE: an oracle reaching into the engines it exists to judge. Only
// oracle/differential.cc, the comparator that runs those engines, holds a
// waiver for core; any other oracle file including core is a violation.
#include "core/split.h"
