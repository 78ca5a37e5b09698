#pragma once
// TuckerMPI-style parameter files, as used by the paper's artifact drivers:
//
//   Print options = true
//   Noise = 0.0001
//   Processor grid dims = 1 2 2 2
//   Global dims = 100 100 100 100
//   Ranks = 10 10 10 10
//   SVD Method = 2
//   Dimension Tree Memoization = true
//   HOOI-Adapt Threshold = 0.1
//   HOOI max iters = 3
//
// "SVD Method" selects the LLSV backend: 0 = Gram + sequential EVD
// (TuckerMPI default), 1 = randomized subspace (cold-start ablation),
// 2 = subspace iteration + QRCP (paper §3.4), 3 = Gaussian sketch,
// 4 = Khatri-Rao sketch; the drivers additionally accept -1 = auto
// (model::pick_llsv_backend chooses by problem shape). SvdMethod::qr_svd
// is API-only and has no value here. The sketched
// backends read "Sketch Oversample", "Sketch Min Cols", "Sketch Growth",
// "Sketch Safety" and "Sketch Deterministic"; the rank-adaptive driver
// reads "RA Init" (sketched | random) — see core/options.hpp.
//
// Lines are "Key = value(s)"; '#' starts a comment; keys are
// case-sensitive; whitespace around keys and values is trimmed. ParamFile
// itself only stores text: core::parse_solve_spec (core/request.hpp) maps a
// file to solver options for every driver and the serve scheduler, and
// rejects any key param_key_table does not list — a misspelled or
// wrong-case key is an error, not a silently ignored line. "Ranks" is an
// alias of "Decomposition Ranks"; a file gives one or the other.

#include <map>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace rahooi::io {

using la::idx_t;

class ParamFile {
 public:
  ParamFile() = default;

  /// Parses from text; throws precondition_error on malformed lines.
  static ParamFile parse(const std::string& text);

  /// Reads and parses a file; throws on IO or parse failure.
  static ParamFile load(const std::string& path);

  bool has(const std::string& key) const;

  /// Typed getters; each returns `fallback` when the key is absent and
  /// throws precondition_error when the value cannot be converted.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  bool get_bool(const std::string& key, bool fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::vector<idx_t> get_dims(const std::string& key) const;
  std::vector<int> get_ints(const std::string& key) const;

  /// All keys in file order (for "Print options" echoes).
  const std::vector<std::string>& keys() const { return order_; }

  /// Renders back to parameter-file text.
  std::string to_string() const;

  void set(const std::string& key, const std::string& value);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

// ---------------------------------------------------------------------------
// Parameter-key registry
// ---------------------------------------------------------------------------

/// One accepted parameter-file key. The table below is the single source of
/// truth shared by (a) the drivers' --help output (param_help), (b) the
/// serving layer's result-cache fingerprint (serve::request_fingerprint
/// hashes exactly the keys with `cache_key` set, in table order), and (c)
/// the set of keys core::parse_solve_spec accepts — so the help text, the
/// cache keying and the accepted keys can never drift apart.
struct ParamKey {
  const char* key;       ///< exact parameter-file key (case-sensitive)
  const char* type;      ///< "bool", "int", "double", "dims", "ints", "string"
  const char* fallback;  ///< rendered default ("(required)" when mandatory)
  /// Comma-separated driver scopes accepting the key: "hooi", "sthosvd",
  /// "serve" (the serve scheduler accepts the hooi solver keys too; scope
  /// lists every surface that documents the key in its --help).
  const char* scope;
  /// True when the key changes the solve *result* (factors/core/ranks) and
  /// therefore belongs to the serve result-cache fingerprint. Output paths,
  /// print switches, and observability knobs are false.
  bool cache_key;
  const char* help;      ///< one-line description
};

/// The full key table, in canonical (fingerprint) order.
const std::vector<ParamKey>& param_key_table();

/// Rendered help text for one driver scope ("hooi", "sthosvd", "serve"):
/// one aligned line per key with type, default, and description.
std::string param_help(const std::string& scope);

}  // namespace rahooi::io
