#include "topo/loaders.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ren::topo {
namespace {

/// Shared tail of every loader: remap identifiers to dense ids (sorted order
/// of the original identifier), coalesce duplicate edges, keep the largest
/// connected component, and measure the diameter.
template <typename Id>
Topology build_from_edges(const std::string& format, const std::string& name,
                          const std::vector<std::pair<Id, Id>>& edges) {
  if (edges.empty()) {
    throw std::runtime_error(format + " '" + name + "': no edges found");
  }
  std::map<Id, int> index;
  for (const auto& [a, b] : edges) {
    index.emplace(a, 0);
    index.emplace(b, 0);
  }
  int next = 0;
  for (auto& [id, ix] : index) ix = next++;

  flows::Graph full(next);
  for (const auto& [a, b] : edges) full.add_edge(index[a], index[b]);

  // Largest connected component; a tie keeps the component holding the
  // smallest original identifier (components are discovered in id order).
  flows::FlatView flat;
  flat.assign(full);
  std::vector<int> comp(static_cast<std::size_t>(full.n()), -1);
  std::vector<std::size_t> sizes;  // by component label
  std::vector<NodeId> members;
  for (int s = 0; s < full.n(); ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    members.clear();
    flat.reachable_from(s, members);
    for (const NodeId v : members) {
      comp[static_cast<std::size_t>(v)] = static_cast<int>(sizes.size());
    }
    sizes.push_back(members.size());
  }
  const auto best = static_cast<int>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());

  std::vector<int> dense(static_cast<std::size_t>(full.n()), -1);
  int kept = 0;
  for (int v = 0; v < full.n(); ++v) {
    if (comp[static_cast<std::size_t>(v)] == best) {
      dense[static_cast<std::size_t>(v)] = kept++;
    }
  }
  flows::Graph g(kept);
  for (int u = 0; u < full.n(); ++u) {
    if (dense[static_cast<std::size_t>(u)] < 0) continue;
    for (int v : full.neighbors(u)) {
      if (u < v) {
        g.add_edge(dense[static_cast<std::size_t>(u)],
                   dense[static_cast<std::size_t>(v)]);
      }
    }
  }
  flat.assign(g);
  const int diameter = flat.diameter();
  return Topology{name, std::move(g), diameter};
}

[[noreturn]] void malformed(const std::string& format, const std::string& name,
                            int line_no, const std::string& what) {
  throw std::runtime_error(format + " '" + name + "' line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

Topology parse_rocketfuel(const std::string& text, const std::string& name) {
  // Rocketfuel .cch lines: "uid @loc ... -> <nuid> <nuid> ... {-euid} ...".
  // Negative uids are external routers; "{-euid}" entries are external
  // links. Both are skipped — Table 8 uses the backbone maps.
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream toks(line);
    std::string tok;
    if (!(toks >> tok) || tok[0] == '#') continue;  // blank / comment
    std::int64_t uid = 0;
    try {
      std::size_t used = 0;
      uid = std::stoll(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
    } catch (const std::exception&) {
      malformed("rocketfuel", name, line_no,
                "expected a numeric router uid, got '" + tok + "'");
    }
    if (uid < 0) continue;  // external router block
    while (toks >> tok) {
      if (tok.front() != '<') continue;  // location/flags/external/name noise
      if (tok.back() != '>') {
        malformed("rocketfuel", name, line_no,
                  "truncated neighbor ref '" + tok + "'");
      }
      std::int64_t nuid = 0;
      try {
        std::size_t used = 0;
        nuid = std::stoll(tok.substr(1, tok.size() - 2), &used);
        if (used != tok.size() - 2) throw std::invalid_argument(tok);
      } catch (const std::exception&) {
        malformed("rocketfuel", name, line_no,
                  "bad neighbor ref '" + tok + "'");
      }
      if (nuid < 0) continue;  // link to an external router
      if (nuid == uid) {
        malformed("rocketfuel", name, line_no, "self-loop on uid " +
                                                   std::to_string(uid));
      }
      edges.emplace_back(uid, nuid);
    }
  }
  return build_from_edges("rocketfuel", name, edges);
}

Topology parse_graphml(const std::string& text, const std::string& name) {
  // Minimal GraphML scan: <node id="..."/> declares a node, <edge
  // source="..." target="..."/> declares a link. Attribute order within the
  // tag is free; everything else (keys, data, namespaces) is ignored.
  auto attr = [](const std::string& tag, const std::string& key)
      -> std::string {
    const std::string needle = key + "=";
    std::size_t pos = 0;
    while ((pos = tag.find(needle, pos)) != std::string::npos) {
      // Require the match to start an attribute (not e.g. "sourceport=").
      if (pos > 0 && (std::isalnum(static_cast<unsigned char>(tag[pos - 1])) != 0 ||
                      tag[pos - 1] == '_')) {
        pos += needle.size();
        continue;
      }
      const std::size_t q = pos + needle.size();
      if (q >= tag.size() || (tag[q] != '"' && tag[q] != '\'')) return {};
      const std::size_t end = tag.find(tag[q], q + 1);
      if (end == std::string::npos) return {};
      return tag.substr(q + 1, end - q - 1);
    }
    return {};
  };

  std::map<std::string, bool> declared;
  std::vector<std::pair<std::string, std::string>> edges;
  std::size_t pos = 0;
  while ((pos = text.find('<', pos)) != std::string::npos) {
    const std::size_t close = text.find('>', pos);
    if (close == std::string::npos) {
      throw std::runtime_error("graphml '" + name + "': truncated tag at byte " +
                               std::to_string(pos));
    }
    const std::string tag = text.substr(pos, close - pos + 1);
    pos = close + 1;
    if (tag.rfind("<node", 0) == 0) {
      const std::string id = attr(tag, "id");
      if (id.empty()) {
        throw std::runtime_error("graphml '" + name + "': <node> without id");
      }
      declared[id] = true;
    } else if (tag.rfind("<edge", 0) == 0) {
      const std::string src = attr(tag, "source");
      const std::string dst = attr(tag, "target");
      if (src.empty() || dst.empty()) {
        throw std::runtime_error("graphml '" + name +
                                 "': <edge> without source/target");
      }
      if (src == dst) {
        throw std::runtime_error("graphml '" + name + "': self-loop on node '" +
                                 src + "'");
      }
      edges.emplace_back(src, dst);
    }
  }
  for (const auto& [a, b] : edges) {
    if (declared.count(a) == 0 || declared.count(b) == 0) {
      throw std::runtime_error("graphml '" + name +
                               "': edge references undeclared node '" +
                               (declared.count(a) == 0 ? a : b) + "'");
    }
  }
  return build_from_edges("graphml", name, edges);
}

Topology parse_edgelist(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<std::string, std::string>> edges;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream toks(line);
    std::string a, b, extra;
    if (!(toks >> a)) continue;  // blank
    if (!(toks >> b)) {
      malformed("edgelist", name, line_no, "expected 'A B', got only '" + a + "'");
    }
    if (toks >> extra) {
      malformed("edgelist", name, line_no, "trailing token '" + extra + "'");
    }
    if (a == b) {
      malformed("edgelist", name, line_no, "self-loop on node '" + a + "'");
    }
    edges.emplace_back(std::move(a), std::move(b));
  }
  return build_from_edges("edgelist", name, edges);
}

namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("topology file '" + path + "': cannot open");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Topology load_file_as(const std::string& path, const std::string& format) {
  const std::string text = read_all(path);
  const std::string name = basename_of(path);
  if (format == "rocketfuel") return parse_rocketfuel(text, name);
  if (format == "graphml") return parse_graphml(text, name);
  if (format == "edgelist") return parse_edgelist(text, name);
  throw std::runtime_error("unknown topology format '" + format +
                           "' (want rocketfuel|graphml|edgelist)");
}

Topology load_file(const std::string& path) {
  auto ends_with = [&path](const char* suffix) {
    const std::string s = suffix;
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".cch")) return load_file_as(path, "rocketfuel");
  if (ends_with(".graphml") || ends_with(".xml")) {
    return load_file_as(path, "graphml");
  }
  return load_file_as(path, "edgelist");
}

}  // namespace ren::topo
