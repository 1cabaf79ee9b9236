#include "output.h"

#include <map>

namespace rit::lint {
namespace {

std::string u64(std::size_t v) {
  // Independent of common/num_io.h on purpose: the lint engine must stay
  // dependency-free so it can lint the tree that builds it.
  return std::to_string(v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool parse_output_format(const std::string& name, OutputFormat* out) {
  if (name == "text") {
    *out = OutputFormat::kText;
  } else if (name == "sarif") {
    *out = OutputFormat::kSarif;
  } else {
    return false;
  }
  return true;
}

std::string render_text(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + u64(f.line) + ": [" + f.rule + "] " + f.message +
           "\n";
  }
  return out;
}

std::string render_sarif(const std::vector<Finding>& findings) {
  const std::vector<RuleInfo> rules = rule_infos();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) rule_index[rules[i].id] = i;

  std::string out =
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"rit_lint\",\n"
      "          \"informationUri\": "
      "\"https://github.com/ritcs/ritcs/blob/main/docs/"
      "static_analysis.md\",\n"
      "          \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": \"" + json_escape(rules[i].id) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(rules[i].summary) +
           "\"}, \"fullDescription\": {\"text\": \"" +
           json_escape(rules[i].rationale) + "\"}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\"ruleId\": \"" + json_escape(f.rule) + "\"";
    auto it = rule_index.find(f.rule);
    if (it != rule_index.end()) {
      out += ", \"ruleIndex\": " + u64(it->second);
    }
    out += ", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) + "\"}, \"region\": {\"startLine\": " +
           u64(f.line) + "}}}]}";
  }
  if (!findings.empty()) out += "\n      ";
  out +=
      "]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace rit::lint
