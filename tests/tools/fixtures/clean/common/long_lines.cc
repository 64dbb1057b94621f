// Clean mirror of bad/common/long_lines.cc: every line fits the
// ColumnLimit (80) of the repo's .clang-format.
#include "some/deeply/nested/generated/header_xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx.h"

namespace fixture {

// A comment reflowed within the limit: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
// yyyyyyyyyy.
int eighty_columns = 1111111111111111111111111111111111111111111111111111111111;
int exactly_eighty = 2222222222222222222222222222222222222222222222222222222222;
// Em dashes count one column each — — — — — zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz
const char* kLongLiteral =
    "wwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwww"
    "wwwwwwwwwwwwwwwwwwwwwwwww";

}  // namespace fixture
