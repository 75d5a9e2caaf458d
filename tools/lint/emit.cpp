// Output side of the analyzer: baseline fingerprints, SARIF 2.1
// emission, structural SARIF validation and GitHub annotations.
//
// SARIF is hand-laid-out text (the repo takes no dependencies):
// write_sarif emits exactly the subset CI consumes — tool.driver.rules
// metadata plus results with ruleId/level/message/physicalLocation —
// and check_sarif re-reads the emitted file with the repo's one JSON
// reader, obs::json, and asserts the 2.1 structural requirements, so the
// "validates against the SARIF 2.1 schema" CTest is a real round-trip
// through a parser rather than trust in the writer.
#include <cctype>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lint.hpp"
#include "obs/json.hpp"

namespace witag::lint {
namespace {

std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string fingerprint(const Finding& f,
                        const std::vector<SourceFile>& files) {
  std::string line_text;
  for (const SourceFile& sf : files) {
    if (sf.display != f.file) continue;
    if (f.line >= 1 && f.line <= sf.raw.size()) {
      line_text = trim(sf.raw[f.line - 1]);
    }
    break;
  }
  return f.rule + "|" + f.file + "|" + hex64(fnv1a(line_text));
}

std::set<std::string> load_baseline(const std::filesystem::path& path) {
  std::set<std::string> fps;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    fps.insert(line);
  }
  return fps;
}

bool write_baseline(const std::filesystem::path& path,
                    const std::set<std::string>& fps) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# witag_lint baseline: accepted findings, one fingerprint per "
         "line.\n"
      << "# Format: rule|file|fnv1a64(trimmed source line). Keyed on line\n"
      << "# content, not line number, so edits elsewhere in a file do not\n"
      << "# invalidate entries. Regenerate with: witag_lint --write-baseline "
         "<paths>\n";
  for (const std::string& fp : fps) out << fp << "\n";
  return static_cast<bool>(out);
}

bool write_sarif(const std::filesystem::path& path,
                 const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out) return false;

  // Rule index: only rules that can fire (all of them) in registry
  // order, so ruleIndex is stable across runs.
  const std::vector<std::string>& rules = all_rules();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) rule_index[rules[i]] = i;
  const auto& desc = rule_descriptions();

  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"witag_lint\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/witag/tools/lint\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const auto d = desc.find(rules[i]);
    out << "            {\n"
        << "              \"id\": \"" << obs::json::escape(rules[i]) << "\",\n"
        << "              \"shortDescription\": {\"text\": \""
        << obs::json::escape(d == desc.end() ? rules[i] : d->second) << "\"}\n"
        << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    const std::size_t line = f.line == 0 ? 1 : f.line;
    out << "        {\n"
        << "          \"ruleId\": \"" << obs::json::escape(f.rule) << "\",\n"
        << "          \"ruleIndex\": " << rule_index[f.rule] << ",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \""
        << obs::json::escape(f.message) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << obs::json::escape(f.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return static_cast<bool>(out);
}

namespace {

using obs::json::Value;

const Value* require(const Value* v, const std::string& key,
                     Value::Kind kind, const std::string& where,
                     std::vector<std::string>& errors) {
  if (v == nullptr) return nullptr;
  if (!v->is_object() || !v->has(key)) {
    errors.push_back(where + ": missing required property '" + key + "'");
    return nullptr;
  }
  const Value& child = v->at(key);
  if (child.kind() != kind) {
    errors.push_back(where + ": property '" + key + "' has wrong type");
    return nullptr;
  }
  return &child;
}

}  // namespace

bool check_sarif(const std::filesystem::path& path,
                 std::vector<std::string>& errors) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    errors.push_back("cannot open " + path.generic_string());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  Value root;
  try {
    root = Value::parse(buf.str());
  } catch (const std::invalid_argument& e) {
    errors.push_back(std::string("JSON parse error: ") + e.what());
    return false;
  }
  if (!root.is_object()) {
    errors.push_back("top level is not an object");
    return false;
  }

  using K = Value::Kind;
  const Value* schema =
      require(&root, "$schema", K::kString, "sarifLog", errors);
  if (schema != nullptr &&
      schema->as_string().find("sarif") == std::string::npos) {
    errors.push_back("$schema does not reference a SARIF schema");
  }
  const Value* version =
      require(&root, "version", K::kString, "sarifLog", errors);
  if (version != nullptr && version->as_string() != "2.1.0") {
    errors.push_back("version is '" + version->as_string() +
                     "', expected '2.1.0'");
  }
  const Value* runs = require(&root, "runs", K::kArray, "sarifLog", errors);
  if (runs == nullptr) return errors.empty();
  if (runs->size() == 0) {
    errors.push_back("runs is empty");
    return false;
  }

  for (std::size_t r = 0; r < runs->size(); ++r) {
    const std::string where = "runs[" + std::to_string(r) + "]";
    const Value* run = &(*runs)[r];
    const Value* tool = require(run, "tool", K::kObject, where, errors);
    const Value* driver =
        require(tool, "driver", K::kObject, where + ".tool", errors);
    require(driver, "name", K::kString, where + ".tool.driver", errors);
    std::set<std::string> rule_ids;
    if (const Value* rules = require(driver, "rules", K::kArray,
                                     where + ".tool.driver", errors)) {
      for (std::size_t i = 0; i < rules->size(); ++i) {
        const std::string rw =
            where + ".tool.driver.rules[" + std::to_string(i) + "]";
        if (const Value* id =
                require(&(*rules)[i], "id", K::kString, rw, errors)) {
          rule_ids.insert(id->as_string());
        }
      }
    }
    const Value* results = require(run, "results", K::kArray, where, errors);
    if (results == nullptr) continue;
    for (std::size_t i = 0; i < results->size(); ++i) {
      const std::string rw = where + ".results[" + std::to_string(i) + "]";
      const Value* res = &(*results)[i];
      if (const Value* rid = require(res, "ruleId", K::kString, rw, errors)) {
        if (!rule_ids.empty() && rule_ids.count(rid->as_string()) == 0) {
          errors.push_back(rw + ": ruleId '" + rid->as_string() +
                           "' not declared in tool.driver.rules");
        }
      }
      if (const Value* level = require(res, "level", K::kString, rw, errors)) {
        const std::string& lv = level->as_string();
        if (lv != "error" && lv != "warning" && lv != "note" && lv != "none") {
          errors.push_back(rw + ": level '" + lv + "' is not a SARIF level");
        }
      }
      const Value* msg = require(res, "message", K::kObject, rw, errors);
      require(msg, "text", K::kString, rw + ".message", errors);
      const Value* locs = require(res, "locations", K::kArray, rw, errors);
      if (locs == nullptr || locs->size() == 0) {
        if (locs != nullptr) errors.push_back(rw + ": locations is empty");
        continue;
      }
      const Value* phys =
          require(&(*locs)[0], "physicalLocation", K::kObject,
                  rw + ".locations[0]", errors);
      const Value* art =
          require(phys, "artifactLocation", K::kObject,
                  rw + ".locations[0].physicalLocation", errors);
      require(art, "uri", K::kString,
              rw + ".locations[0].physicalLocation.artifactLocation",
              errors);
      const Value* region =
          require(phys, "region", K::kObject,
                  rw + ".locations[0].physicalLocation", errors);
      if (const Value* sl =
              require(region, "startLine", K::kNumber,
                      rw + ".locations[0].physicalLocation.region",
                      errors)) {
        if (sl->as_number() < 1) {
          errors.push_back(rw + ": startLine must be >= 1");
        }
      }
    }
  }
  return errors.empty();
}

void print_github_annotations(const std::vector<Finding>& findings) {
  const auto esc = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '%': out += "%25"; break;
        case '\r': out += "%0D"; break;
        case '\n': out += "%0A"; break;
        default: out += c;
      }
    }
    return out;
  };
  for (const Finding& f : findings) {
    std::cout << "::error file=" << esc(f.file);
    if (f.line > 0) std::cout << ",line=" << f.line;
    std::cout << ",title=witag-lint " << esc(f.rule) << "::"
              << esc(f.message) << "\n";
  }
}

}  // namespace witag::lint
