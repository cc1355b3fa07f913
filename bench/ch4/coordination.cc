#include "ch4/coordination.h"

// The coordination primitives are header-only templates; this translation
// unit exists to ensure the header is self-contained and to anchor vtables
// where the compiler chooses to emit them.

namespace gdisim {}  // namespace gdisim
