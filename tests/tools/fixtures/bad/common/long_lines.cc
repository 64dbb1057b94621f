// Seeded PHL006 violations: lines longer than the ColumnLimit (80) of the
// repo's .clang-format, the nearest one above this file.
#include "some/deeply/nested/generated/header_xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx.h"

namespace fixture {

// A comment reflowed past the limit: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
int eighty_one_columns = 1111111111111111111111111111111111111111111111111111111;
int exactly_eighty = 2222222222222222222222222222222222222222222222222222222222;
// Em dashes count one column each — — — — — zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz
const char* kLongLiteral = "wwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwww";

}  // namespace fixture
