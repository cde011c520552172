#include "scenario/rows.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "util/stats.hpp"

namespace ren::scenario {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("rows: " + what);
}

/// printf onto the end of `out`.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  va_list args, sizing;
  va_start(args, fmt);
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, args);
  va_end(args);
  out.resize(at + static_cast<std::size_t>(n));
}

/// The one label rule: topology, then the controller count and each axis
/// value only where they vary across the report's cells.
std::vector<std::string> cell_labels(const CampaignResult& r) {
  std::vector<std::string> labels;
  if (r.cells.empty()) return labels;
  const CellResult& first = r.cells.front();
  bool controllers_vary = false;
  std::vector<bool> axis_varies(first.axes.size(), false);
  for (const CellResult& c : r.cells) {
    controllers_vary |= c.controllers != first.controllers;
    for (std::size_t k = 0; k < axis_varies.size(); ++k) {
      axis_varies[k] = axis_varies[k] || c.axes[k] != first.axes[k];
    }
  }
  for (const CellResult& c : r.cells) {
    std::string label = c.topology;
    if (controllers_vary) appendf(label, " c=%d", c.controllers);
    for (std::size_t k = 0; k < axis_varies.size(); ++k) {
      if (axis_varies[k]) {
        appendf(label, " %s=%g", c.axes[k].first.c_str(), c.axes[k].second);
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

int label_width(const std::vector<std::string>& labels) {
  std::size_t w = 0;
  for (const auto& l : labels) w = std::max(w, l.size());
  return static_cast<int>(w);
}

void header(std::string& out, const RowKind& kind, const std::string& title,
            const CampaignResult& r) {
  appendf(out, "# %s (%s): %s timers, trials_per_cell=%d\n", title.c_str(),
          kind.name.c_str(), r.profile.c_str(), r.trials_per_cell);
}

const CellResult::CheckpointAgg* find_checkpoint(const CellResult& cell,
                                                 const std::string& label) {
  for (const auto& cp : cell.checkpoints) {
    if (cp.label == label) return &cp;
  }
  return nullptr;
}

/// The cell's traffic window (a trial opens at most one), nullptr when no
/// completed trial recorded it.
const CellResult::WindowAgg* find_window(const CellResult& cell) {
  if (cell.windows.empty() || cell.windows.front().trials == 0) return nullptr;
  return &cell.windows.front();
}

/// The row of `fields` whose key is `key`, nullptr when none is.
template <class Field>
const Field* find_field(std::span<const Field> fields, const std::string& key) {
  for (const Field& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

/// The keys of `fields` as "a|b|c", for the kinds list.
template <class Field>
std::string field_keys(std::span<const Field> fields) {
  std::string out;
  for (const Field& f : fields) {
    if (!out.empty()) out += '|';
    out += f.key;
  }
  return out;
}

/// Per-trial values of the named checkpoint over the trials whose
/// bootstrap checkpoint converged: a recovery measured on a network that
/// never became legitimate would skew the figure.
Sample violin_sample(const CellResult& cell, const RowKind& kind,
                     const CheckpointField& field) {
  Sample s;
  for (const auto& [trial, out] : cell.raw) {
    (void)trial;
    const bool booted = std::any_of(
        out.checkpoints.begin(), out.checkpoints.end(), [](const auto& cp) {
          return cp.label == "bootstrap" && cp.converged;
        });
    if (!booted) continue;
    for (const auto& cp : out.checkpoints) {
      if (cp.label != kind.label) continue;
      s.add(cp.*field.trial);
    }
  }
  return s;
}

void cell_rows(const RowKind& kind, const CampaignResult& r,
               std::string& out) {
  if (kind.shape == RowKind::Shape::Checkpoint ||
      kind.shape == RowKind::Shape::Violin) {
    const bool any = std::any_of(
        r.cells.begin(), r.cells.end(), [&](const CellResult& c) {
          return find_checkpoint(c, kind.label) != nullptr;
        });
    if (!any) {
      bad("no cell of \"" + r.scenario + "\" has a checkpoint \"" +
          kind.label + "\"");
    }
  }
  const auto labels = cell_labels(r);
  const int width = label_width(labels);
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const CellResult& cell = r.cells[i];
    appendf(out, "%-*s", width, labels[i].c_str());
    switch (kind.shape) {
      case RowKind::Shape::Checkpoint: {
        const auto* cp = find_checkpoint(cell, kind.label);
        if (cp == nullptr) {
          appendf(out, " (no \"%s\" checkpoint)\n", kind.label.c_str());
          break;
        }
        const PercentileSummary& p = cp->seconds;
        appendf(out,
                " mean=%.2f med=%.2f [p90=%.2f] (min=%.2f max=%.2f) n=%zu "
                "converged=%d/%d [s]\n",
                p.mean, p.p50, p.p90, p.min, p.max, p.n, cp->converged,
                cp->trials);
        break;
      }
      case RowKind::Shape::Violin: {
        const auto& field = *find_field(checkpoint_fields(), kind.field);
        const Sample raw = violin_sample(cell, kind, field);
        const Sample s = raw.size() > 2 ? raw.drop_extrema() : raw;
        appendf(out, " %s [%.*s]\n", format_violin(s.violin(), 2).c_str(),
                static_cast<int>(field.unit.size()), field.unit.data());
        break;
      }
      case RowKind::Shape::Series: {
        const auto* w = find_window(cell);
        if (w == nullptr) {
          out += " (no traffic window)\n";
          break;
        }
        const auto& field = *find_field(series_fields(), kind.field);
        for (double v : w->*field.cell) {
          appendf(out, " %.*f", field.precision, v);
        }
        out += '\n';
        break;
      }
      case RowKind::Shape::Pearson:
        break;  // two reports; see pearson_rows
    }
  }
}

void pearson_rows(const CampaignResult& a, const CampaignResult& b,
                  std::string& out) {
  bool same_grid = a.cells.size() == b.cells.size();
  for (std::size_t i = 0; same_grid && i < a.cells.size(); ++i) {
    same_grid = a.cells[i].topology == b.cells[i].topology &&
                a.cells[i].controllers == b.cells[i].controllers &&
                a.cells[i].axes == b.cells[i].axes;
  }
  if (!same_grid) {
    bad("pearson needs two reports over the same grid; \"" + a.scenario +
        "\" and \"" + b.scenario + "\" differ");
  }
  const auto labels = cell_labels(a);
  const int width = label_width(labels);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto* wa = find_window(a.cells[i]);
    const auto* wb = find_window(b.cells[i]);
    appendf(out, "%-*s", width, labels[i].c_str());
    if (wa == nullptr || wb == nullptr ||
        wa->mbits_series.size() != wb->mbits_series.size() ||
        wa->mbits_series.size() < 2) {
      out += " r=n/a\n";
      continue;
    }
    appendf(out, " r=%.2f\n", pearson(wa->mbits_series, wb->mbits_series));
  }
}

}  // namespace

RowKind parse_row_kind(const std::string& kind) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  for (std::size_t colon; (colon = kind.find(':', from)) != std::string::npos;
       from = colon + 1) {
    parts.push_back(kind.substr(from, colon - from));
  }
  parts.push_back(kind.substr(from));

  RowKind k;
  k.name = kind;
  const std::string& shape = parts.front();
  const bool labelled = parts.size() >= 2 && !parts[1].empty();
  if (shape == "checkpoint" && parts.size() == 2 && labelled) {
    k.shape = RowKind::Shape::Checkpoint;
    k.label = parts[1];
    return k;
  }
  if (shape == "violin" && labelled &&
      (parts.size() == 2 ||
       (parts.size() == 3 &&
        find_field(checkpoint_fields(), parts[2]) != nullptr))) {
    k.shape = RowKind::Shape::Violin;
    k.label = parts[1];
    k.field = parts.size() == 3 ? parts[2]
                                : std::string(checkpoint_fields()[0].key);
    return k;
  }
  if (shape == "series" && parts.size() == 2 &&
      find_field(series_fields(), parts[1]) != nullptr) {
    k.shape = RowKind::Shape::Series;
    k.field = parts[1];
    return k;
  }
  if (shape == "pearson" && parts.size() == 1) {
    k.shape = RowKind::Shape::Pearson;
    return k;
  }
  throw std::invalid_argument(
      "unknown --rows kind \"" + kind +
      "\"; kinds: checkpoint:LABEL, violin:LABEL[:" +
      field_keys(checkpoint_fields()) +
      "], series:" + field_keys(series_fields()) + ", pearson");
}

std::string format_rows(const RowKind& kind,
                        const std::vector<CampaignResult>& reports) {
  std::string out;
  if (kind.shape == RowKind::Shape::Pearson) {
    if (reports.size() != 2) {
      bad("pearson takes two reports, got " + std::to_string(reports.size()));
    }
    header(out, kind, reports[0].scenario + " vs " + reports[1].scenario,
           reports[0]);
    pearson_rows(reports[0], reports[1], out);
    return out;
  }
  for (const CampaignResult& r : reports) {
    header(out, kind, r.scenario, r);
    cell_rows(kind, r, out);
  }
  return out;
}

}  // namespace ren::scenario
