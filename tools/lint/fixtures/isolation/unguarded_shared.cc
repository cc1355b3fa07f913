// Fixture: mutable statics and namespace-scope globals without
// synchronization or a GDISIM-SHARED sanction. The const / thread_local /
// annotated declarations must NOT be flagged.
namespace fixture {

int g_total = 0;  // mutable global: flagged

static const int kLimit = 64;       // const: exempt
thread_local int tl_scratch = 0;    // exempt here; raw-sync audits it
int g_annotated = 0;  // GDISIM-SHARED: test-only tally, single writer
int g_bare = 0;  // GDISIM-SHARED

inline int bump() {
  static int hits = 0;  // mutable function-local static: flagged
  return ++hits;
}

}  // namespace fixture
