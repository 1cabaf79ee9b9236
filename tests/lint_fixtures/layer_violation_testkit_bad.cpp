// Fixture: production code (platform/, tier 4) including testkit (tier 5)
// must be flagged — fault injectors and oracles stay out of the engines.
#include "testkit/chaos.h"

int supervise_step() { return 0; }
