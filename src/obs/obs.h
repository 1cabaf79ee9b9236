// Umbrella header for the observability layer: span tracing, Chrome-trace
// export, and the metrics registry. Instrumented code includes this one
// header and uses the RIT_TRACE_SPAN / RIT_COUNTER_* macros. See
// docs/observability.md.
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"
