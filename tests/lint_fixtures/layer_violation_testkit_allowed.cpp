// Fixture: the allowlist directive suppresses the finding on the include.
#include "testkit/chaos.h"  // rit-lint: allow(layer-violation)

int supervise_step() { return 0; }
