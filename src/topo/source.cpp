#include "topo/source.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "topo/generators.hpp"
#include "topo/loaders.hpp"

namespace ren::topo {
namespace {

struct Params {
  std::map<std::string, std::string> kv;
  std::string spec;  // for error messages

  [[nodiscard]] bool has(const std::string& key) const {
    return kv.count(key) != 0;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback,
                                     bool required) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      if (!required) return fallback;
      throw std::invalid_argument("topology spec '" + spec +
                                  "': missing required parameter '" + key + "'");
    }
    try {
      std::size_t used = 0;
      const std::int64_t v = std::stoll(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("topology spec '" + spec + "': parameter '" +
                                  key + "=" + it->second +
                                  "' is not an integer");
    }
  }
};

/// Parse "k1=v1,k2=v2" after the colon, rejecting unknown keys.
Params parse_params(const std::string& spec, const std::string& body,
                    const std::vector<std::string>& allowed) {
  Params p;
  p.spec = spec;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    bool ok = false;
    for (const auto& a : allowed) ok = ok || (a == key);
    if (!ok) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': unknown parameter '" + key + "'");
    }
    if (!p.kv.emplace(key, item.substr(eq + 1)).second) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': duplicate parameter '" + key + "'");
    }
  }
  return p;
}

Topology resolve_uncached(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return by_name(spec);  // paper builtin
  const std::string head = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  if (head == "fat_tree") {
    const Params p = parse_params(spec, body, {"k"});
    return make_fat_tree(static_cast<int>(p.get_int("k", 0, true)));
  }
  if (head == "random_wan") {
    const Params p = parse_params(spec, body, {"nodes", "m", "seed"});
    return make_random_wan(
        static_cast<int>(p.get_int("nodes", 0, true)),
        static_cast<int>(p.get_int("m", 2, false)),
        static_cast<std::uint64_t>(p.get_int("seed", 1, false)));
  }
  if (head == "isp") {
    const Params p = parse_params(spec, body, {"nodes", "diameter", "seed"});
    return make_isp(spec, static_cast<int>(p.get_int("nodes", 0, true)),
                    static_cast<int>(p.get_int("diameter", 0, true)),
                    static_cast<std::uint64_t>(p.get_int("seed", 1, false)));
  }
  if (head == "file") return load_file(body);
  if (head == "rocketfuel" || head == "graphml" || head == "edgelist") {
    return load_file_as(body, head);
  }
  throw std::invalid_argument(
      "unknown topology spec '" + spec +
      "' (want a builtin name, fat_tree:k=K, random_wan:nodes=N[,m=M][,seed=S], "
      "isp:nodes=N,diameter=D[,seed=S], or file:PATH)");
}

const Topology& resolve_cached(const std::string& spec) {
  static std::mutex mu;
  static std::map<std::string, Topology>* cache =
      new std::map<std::string, Topology>();  // leaked: safe at exit
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(spec);
  if (it == cache->end()) {
    it = cache->emplace(spec, resolve_uncached(spec)).first;
  }
  return it->second;
}

}  // namespace

Topology resolve(const std::string& spec) { return resolve_cached(spec); }

void validate_spec(const std::string& spec) { (void)resolve_cached(spec); }

std::vector<TopoInfo> list_topos() {
  std::vector<TopoInfo> out;
  auto add = [&out](const std::string& spec, const std::string& kind,
                    const std::string& summary) {
    const Topology t = resolve(spec);
    out.push_back(TopoInfo{spec, kind, summary, t.switch_graph.n(),
                           t.switch_graph.edge_count(), t.expected_diameter});
  };
  add("B4", "builtin", "Google's SDN WAN (paper Table 8)");
  add("Clos", "builtin", "3-stage fat-tree, k=4 (paper Table 8)");
  add("Telstra", "builtin", "Rocketfuel 1221 stand-in (paper Table 8)");
  add("ATT", "builtin", "Rocketfuel 7018 stand-in (paper Table 8)");
  add("EBONE", "builtin", "Rocketfuel 1755 stand-in (paper Table 8)");
  add("fat_tree:k=8", "generator example", "folded Clos datacenter fabric");
  add("fat_tree:k=16", "generator example", "folded Clos datacenter fabric");
  add("fat_tree:k=32", "generator example", "folded Clos datacenter fabric");
  add("random_wan:nodes=1024,m=2,seed=1", "generator example",
      "preferential-attachment WAN, 2-edge-connected");
  add("isp:nodes=120,diameter=9,seed=1", "generator example",
      "hub-backbone ISP with exact diameter");
  out.push_back(TopoInfo{"file:PATH", "loader",
                         "rocketfuel .cch / topology-zoo .graphml / edge list"
                         " (format by extension)",
                         0, 0, 0});
  return out;
}

}  // namespace ren::topo
