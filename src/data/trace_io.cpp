#include "data/trace_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace daop::data {
namespace {

void write_scores(std::ostream& os, std::span<const float> scores) {
  for (float s : scores) os << ' ' << s;
}

void read_scores(std::istringstream& line, std::vector<float>& out,
                 const char* what) {
  for (float& v : out) {
    DAOP_CHECK_MSG(static_cast<bool>(line >> v),
                   "truncated " << what << " vector");
  }
}

/// Rejects anything left on a record line after its last field.
void check_no_trailing(std::istringstream& line, const std::string& kind,
                       int layer, int token) {
  std::string extra;
  DAOP_CHECK_MSG(!(line >> extra), "trailing '" << extra << "' on " << kind
                                                << " record at layer " << layer
                                                << " token " << token);
}

}  // namespace

void save_trace(const SequenceTrace& trace, std::ostream& os) {
  DAOP_CHECK_GT(trace.n_layers(), 0);
  // Enough digits for bit-exact float round trips.
  os << std::setprecision(std::numeric_limits<float>::max_digits10);
  os << "daop-trace v1\n";
  os << "header " << trace.n_layers() << ' ' << trace.n_experts << ' '
     << trace.top_k << ' ' << trace.prompt_len << ' ' << trace.gen_len
     << '\n';
  for (int l = 0; l < trace.n_layers(); ++l) {
    for (int t = 0; t < trace.prompt_len; ++t) {
      const TokenRouting tr = trace.at(Phase::Prefill, l, t);
      os << "P " << l << ' ' << t;
      write_scores(os, tr.scores);
      os << '\n';
    }
  }
  for (int l = 0; l < trace.n_layers(); ++l) {
    for (int t = 0; t < trace.gen_len; ++t) {
      const TokenRouting tr = trace.at(Phase::Decode, l, t);
      os << "D " << l << ' ' << t;
      write_scores(os, tr.scores);
      if (!tr.pred_scores.empty()) {
        os << " |";
        write_scores(os, tr.pred_scores);
      }
      os << '\n';
    }
  }
}

SequenceTrace load_trace(std::istream& is) {
  std::string line;
  DAOP_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                     line == "daop-trace v1",
                 "missing 'daop-trace v1' magic line");

  SequenceTrace trace;
  bool have_header = false;
  long long prefill_cells = 0;
  long long decode_cells = 0;
  // Cells already read, [layer][token] per phase.
  std::vector<std::uint8_t> seen_prefill;
  std::vector<std::uint8_t> seen_decode;
  // One record's scores and prediction, parsed before set_cell.
  std::vector<float> scores;
  std::vector<float> pred;

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "header") {
      DAOP_CHECK_MSG(!have_header, "duplicate header");
      int n_layers = 0;
      int n_experts = 0;
      int top_k = 0;
      int prompt_len = 0;
      int gen_len = 0;
      DAOP_CHECK_MSG(static_cast<bool>(ls >> n_layers >> n_experts >> top_k >>
                                       prompt_len >> gen_len),
                     "malformed header");
      check_trace_shape(n_layers, n_experts, top_k, prompt_len, gen_len,
                        "bad trace header '" + line + "'");
      trace = SequenceTrace(n_layers, n_experts, top_k, prompt_len, gen_len);
      seen_prefill.assign(static_cast<std::size_t>(n_layers) *
                              static_cast<std::size_t>(prompt_len),
                          0);
      seen_decode.assign(static_cast<std::size_t>(n_layers) *
                             static_cast<std::size_t>(gen_len),
                         0);
      scores.resize(static_cast<std::size_t>(n_experts));
      pred.resize(static_cast<std::size_t>(n_experts));
      have_header = true;
      continue;
    }
    DAOP_CHECK_MSG(have_header, "data line before header");
    DAOP_CHECK_MSG(kind == "P" || kind == "D",
                   "unknown record kind '" << kind << "'");
    int l = -1;
    int t = -1;
    DAOP_CHECK_MSG(static_cast<bool>(ls >> l >> t), "malformed record indices");
    DAOP_CHECK_MSG(l >= 0 && l < trace.n_layers(), "layer out of range: " << l);
    const bool is_prefill = kind == "P";
    const int max_t = is_prefill ? trace.prompt_len : trace.gen_len;
    DAOP_CHECK_MSG(t >= 0 && t < max_t, "token out of range: " << t);
    std::uint8_t& seen =
        (is_prefill ? seen_prefill : seen_decode)
            [static_cast<std::size_t>(l) * static_cast<std::size_t>(max_t) +
             static_cast<std::size_t>(t)];
    DAOP_CHECK_MSG(seen == 0, "duplicate cell " << kind << " " << l << " " << t);
    seen = 1;
    read_scores(ls, scores, "scores");
    if (is_prefill) {
      check_no_trailing(ls, kind, l, t);
      trace.set_cell(Phase::Prefill, l, t, scores);
      ++prefill_cells;
      continue;
    }
    ++decode_cells;
    std::string sep;
    if (ls >> sep) {
      DAOP_CHECK_MSG(sep == "|", "expected '|' before predictions");
      read_scores(ls, pred, "pred");
      check_no_trailing(ls, kind, l, t);
      trace.set_cell(Phase::Decode, l, t, scores, pred);
    } else {
      trace.set_cell(Phase::Decode, l, t, scores);
    }
  }
  DAOP_CHECK_MSG(have_header, "empty trace (no header)");
  DAOP_CHECK_MSG(prefill_cells == static_cast<long long>(seen_prefill.size()),
                 "missing prefill cells: " << prefill_cells);
  DAOP_CHECK_MSG(decode_cells == static_cast<long long>(seen_decode.size()),
                 "missing decode cells: " << decode_cells);
  return trace;
}

void save_trace_file(const SequenceTrace& trace, const std::string& path) {
  std::ofstream f(path);
  DAOP_CHECK_MSG(static_cast<bool>(f), "cannot open for write: " << path);
  save_trace(trace, f);
  DAOP_CHECK_MSG(static_cast<bool>(f), "write failed: " << path);
}

SequenceTrace load_trace_file(const std::string& path) {
  std::ifstream f(path);
  DAOP_CHECK_MSG(static_cast<bool>(f), "cannot open for read: " << path);
  return load_trace(f);
}

}  // namespace daop::data
