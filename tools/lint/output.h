// Output layer of the rit_lint engine: renders a finding list as plain
// text (the developer loop) or SARIF 2.1.0 (GitHub code-scanning upload
// for inline PR annotations).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linter.h"

namespace rit::lint {

enum class OutputFormat { kText, kSarif };

/// Parses "text" / "sarif"; false on anything else.
bool parse_output_format(const std::string& name, OutputFormat* out);

/// One line per finding: `file:line: [rule] message`. No trailing
/// summary — the CLI appends its own.
std::string render_text(const std::vector<Finding>& findings);

/// A single-run SARIF 2.1.0 log. Every known rule is listed in
/// tool.driver.rules (id, shortDescription, fullDescription) so GitHub can
/// render rule help; results reference rules by index. URIs are
/// repo-relative, which is what the code-scanning upload expects. Strings
/// are JSON-escaped (quotes, backslashes, control characters).
std::string render_sarif(const std::vector<Finding>& findings);

}  // namespace rit::lint
