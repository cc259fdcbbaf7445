#include "lint/sarif.hpp"

#include <map>
#include <tuple>

#include "json/json.hpp"

namespace vn2::lint {

std::string to_sarif(const std::vector<Finding>& findings) {
  // Stable rule order + index map for results' ruleIndex.
  const auto catalogue = rule_catalogue();
  std::map<std::string, std::size_t> index_of;
  json::Value rules = json::Value::array();
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    index_of[catalogue[i].first] = i;
    rules.push_back(json::Value::object(
        {{"id", catalogue[i].first},
         {"shortDescription",
          json::Value::object({{"text", catalogue[i].second}})}}));
  }
  json::Value results = json::Value::array();
  for (const Finding& f : findings) {
    json::Value result = json::Value::object({{"ruleId", f.rule}});
    const auto idx = index_of.find(f.rule);
    if (idx != index_of.end()) result.set("ruleIndex", idx->second);
    const json::Value location = json::Value::object(
        {{"physicalLocation",
          json::Value::object(
              {{"artifactLocation",
                json::Value::object(
                    {{"uri", f.file}, {"uriBaseId", "SRCROOT"}})},
               {"region", json::Value::object({{"startLine", f.line}})}})}});
    result.set("level", "error")
        .set("message", json::Value::object({{"text", f.message}}))
        .set("locations", json::Value::array({location}));
    results.push_back(std::move(result));
  }
  const json::Value driver = json::Value::object(
      {{"name", "vn2-lint"},
       {"version", "2.0.0"},
       {"informationUri", "DESIGN.md#correctness--static-analysis"},
       {"rules", std::move(rules)}});
  const json::Value run = json::Value::object(
      {{"tool", json::Value::object({{"driver", driver}})},
       {"results", std::move(results)}});
  return json::dump_indented(json::Value::object(
      {{"$schema", "https://json.schemastore.org/sarif-2.1.0.json"},
       {"version", "2.1.0"},
       {"runs", json::Value::array({run})}}));
}

std::optional<std::vector<Finding>> findings_from_sarif(
    const std::string& text, std::string* error) {
  try {
    const json::Value root = json::parse(text);
    const json::Value& version = root.at("version");
    if (version.as_string() != "2.1.0")
      throw json::Error(version.offset(), "unsupported SARIF version " +
                                              version.as_string());
    std::vector<Finding> findings;
    for (const json::Value& run : root.at("runs").items()) {
      for (const json::Value& result : run.at("results").items()) {
        const json::Value& locations = result.at("locations");
        if (locations.items().empty())
          throw json::Error(locations.offset(), "result.locations is empty");
        const json::Value& physical =
            locations.items().front().at("physicalLocation");
        Finding f;
        f.rule = result.at("ruleId").as_string();
        f.message = result.at("message").at("text").as_string();
        f.file = physical.at("artifactLocation").at("uri").as_string();
        f.line = physical.at("region").at("startLine").as_u64();
        findings.push_back(std::move(f));
      }
    }
    return findings;
  } catch (const json::Error& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

BaselineDiff apply_baseline(const std::vector<Finding>& findings,
                            const std::vector<Finding>& baseline) {
  BaselineDiff diff;
  // (rule, file, line) -> unconsumed baseline entry count.
  std::map<std::tuple<std::string, std::string, std::size_t>, std::size_t>
      pool;
  for (const Finding& b : baseline) ++pool[{b.rule, b.file, b.line}];
  for (const Finding& f : findings) {
    const auto key = std::make_tuple(f.rule, f.file, f.line);
    auto it = pool.find(key);
    if (it != pool.end() && it->second > 0) {
      --it->second;
      diff.suppressed.push_back(f);
    } else {
      diff.active.push_back(f);
    }
  }
  for (const Finding& b : baseline) {
    auto it = pool.find({b.rule, b.file, b.line});
    if (it != pool.end() && it->second > 0) {
      --it->second;
      diff.stale.push_back(b);
    }
  }
  return diff;
}

}  // namespace vn2::lint
