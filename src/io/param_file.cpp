#include "io/param_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"

namespace rahooi::io {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

ParamFile ParamFile::parse(const std::string& text) {
  ParamFile pf;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    RAHOOI_REQUIRE(eq != std::string::npos,
                   "parameter file line " + std::to_string(lineno) +
                       " has no '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    RAHOOI_REQUIRE(!key.empty(), "parameter file line " +
                                     std::to_string(lineno) +
                                     " has an empty key");
    pf.set(key, value);
  }
  return pf;
}

ParamFile ParamFile::load(const std::string& path) {
  std::ifstream in(path);
  RAHOOI_REQUIRE(in.good(), "cannot open parameter file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool ParamFile::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string ParamFile::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool ParamFile::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(), ::tolower);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw precondition_error("parameter '" + key + "' is not a boolean: " +
                           it->second);
}

long long ParamFile::get_int(const std::string& key,
                             long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    RAHOOI_REQUIRE(trim(it->second.substr(pos)).empty(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw precondition_error("parameter '" + key + "' is not an integer: " +
                             it->second);
  }
}

double ParamFile::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    RAHOOI_REQUIRE(trim(it->second.substr(pos)).empty(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw precondition_error("parameter '" + key + "' is not a number: " +
                             it->second);
  }
}

std::vector<idx_t> ParamFile::get_dims(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return {};
  std::vector<idx_t> dims;
  std::istringstream in(it->second);
  long long v = 0;
  while (in >> v) dims.push_back(v);
  RAHOOI_REQUIRE(in.eof(), "parameter '" + key +
                               "' is not a list of integers: " + it->second);
  return dims;
}

std::vector<int> ParamFile::get_ints(const std::string& key) const {
  std::vector<int> out;
  for (const idx_t v : get_dims(key)) out.push_back(static_cast<int>(v));
  return out;
}

std::string ParamFile::to_string() const {
  std::ostringstream os;
  for (const std::string& key : order_) {
    os << key << " = " << values_.at(key) << '\n';
  }
  return os.str();
}

void ParamFile::set(const std::string& key, const std::string& value) {
  if (values_.count(key) == 0) order_.push_back(key);
  values_[key] = value;
}

const std::vector<ParamKey>& param_key_table() {
  // Canonical order: result-affecting keys first (the serve cache
  // fingerprint walks the table in this order), then fault/runtime knobs,
  // then pure input/output/reporting switches. Adding a key here is all
  // that is needed for it to appear in every driver's --help, and for
  // core::parse_solve_spec to accept it.
  static const std::vector<ParamKey> kTable{
      // -- problem definition (all result-affecting) ----------------------
      {"Global dims", "dims", "(required)", "hooi,sthosvd,serve", true,
       "global tensor extents, e.g. \"100 100 100\""},
      {"Processor grid dims", "ints", "(required; serve: elastic)",
       "hooi,sthosvd,serve", true,
       "per-mode processor counts; serve picks an elastic grid when absent"},
      {"Dataset", "string", "synthetic", "hooi,sthosvd,serve", true,
       "synthetic | miranda | hcci | sp surrogate generators"},
      {"Input file", "string", "", "hooi,sthosvd,serve", true,
       "read the tensor from this file instead of generating it"},
      {"Construction Ranks", "dims", "(= Decomposition Ranks)",
       "hooi,sthosvd,serve", true, "true ranks of the synthetic input"},
      {"Decomposition Ranks", "dims", "(required unless SV Threshold > 0)",
       "hooi,sthosvd,serve", true,
       "fixed-rank targets, RA starting ranks, or STHOSVD truncation ranks"},
      {"Ranks", "dims", "(= Decomposition Ranks)", "hooi,sthosvd,serve",
       true, "alias of Decomposition Ranks (artifact spelling); not both"},
      {"Noise", "double", "1e-4", "hooi,sthosvd,serve", true,
       "relative noise level of the synthetic input"},
      {"Seed", "int", "1", "hooi,sthosvd,serve", true,
       "counter-RNG seed for data generation and random factors"},
      {"Single precision", "bool", "true", "hooi,sthosvd,serve", true,
       "float (true) or double (false) elements"},
      // -- solver configuration (all result-affecting) --------------------
      {"SVD Method", "int", "0", "hooi,serve", true,
       "LLSV backend: 0 Gram+EVD, 1 randomized, 2 subspace+QRCP, 3 Gaussian "
       "sketch, 4 Khatri-Rao sketch, -1 auto (cost model)"},
      {"Dimension Tree Memoization", "bool", "false", "hooi,serve", true,
       "memoize partial TTM chains (HOOI-DT / HOSI-DT variants)"},
      {"HOOI max iters", "int", "2", "hooi,serve", true,
       "HOOI sweeps (fixed-rank) or RA outer iterations"},
      {"HOOI-Adapt Threshold", "double", "0", "hooi,serve", true,
       "eps of the error-specified problem; > 0 enables rank-adaptive HOOI"},
      {"Rank growth factor", "double", "1.5", "hooi,serve", true,
       "alpha of Alg. 3: per-iteration rank growth when eps is not met"},
      {"RA Init", "string", "random", "hooi,serve", true,
       "rank-adaptive start: random | sketched (randomized ST-HOSVD)"},
      {"Sketch Oversample", "int", "8", "hooi,serve", true,
       "extra sketch columns beyond the target rank (methods 3/4)"},
      {"Sketch Min Cols", "int", "16", "hooi,serve", true,
       "initial sketch width for eps-driven adaptive truncation"},
      {"Sketch Growth", "double", "2.0", "hooi,serve", true,
       "sketch-width growth factor when the tail-energy test fails"},
      {"Sketch Safety", "double", "0.5", "hooi,serve", true,
       "accept an adaptive rank only below safety * tau^2 tail energy"},
      {"Sketch Deterministic", "bool", "false", "hooi,serve", true,
       "bitwise grid-invariant fixed-point sketch apply path"},
      {"SV Threshold", "double", "0", "sthosvd", true,
       "error-specified STHOSVD threshold (0 = rank-specified)"},
      {"Perform STHOSVD", "bool", "true", "sthosvd", true,
       "artifact-compatibility switch; must be true"},
      // -- fault injection (result-affecting: bitflip/kill change results) -
      {"Fault plan", "string", "", "hooi,sthosvd,serve", true,
       "deterministic fault injection, e.g. kill:sweep@3%1 "
       "(docs/ROBUSTNESS.md; '%' aliases '#')"},
      {"Fault seed", "int", "1", "hooi,sthosvd,serve", true,
       "seed of the fault plan's random choices"},
      // -- runtime / robustness knobs (do not change a successful result) --
      {"Collective timeout ms", "double", "0", "hooi,sthosvd,serve", false,
       "hang-watchdog deadline per collective (0 disables)"},
      {"Checkpoint file", "string", "", "hooi,serve", false,
       "write a checkpoint after every sweep; resume with --restore"},
      // -- serving-layer admission keys (docs/SERVING.md) ------------------
      {"Serve priority", "string", "normal", "serve", false,
       "admission priority: low | normal | high"},
      {"Serve deadline s", "double", "0", "serve", false,
       "per-job deadline in seconds from submit (0 = none)"},
      {"Serve max attempts", "int", "1", "serve", false,
       "total solve attempts on transient failures (1 = no retry)"},
      {"Serve retry backoff ms", "double", "0", "serve", false,
       "retry k redispatches after backoff * 2^(k-1) ms plus jitter"},
      {"Serve retry jitter ms", "double", "0", "serve", false,
       "additive retry jitter bound, drawn from the counter-based RNG"},
      {"Serve keep checkpoint", "bool", "false", "serve", false,
       "keep the job checkpoint after successful completion"},
      {"Serve status file", "string", "", "serve", false,
       "publish the live status table here (exposition at <path>.prom)"},
      {"Serve status interval ms", "double", "250", "serve", false,
       "obs::Exporter publish period for the status/exposition files"},
      // -- input/output and reporting (never result-affecting) -------------
      {"Output file", "string", "", "hooi,sthosvd", false,
       "write the compressed Tucker tensor here"},
      {"Metrics file", "string", "", "hooi,sthosvd", false,
       "enable metrics and write the flat JSON here (= --metrics-out)"},
      {"Profile", "bool", "false", "hooi,sthosvd", false,
       "trace the run with the span profiler (= --profile)"},
      {"Trace file", "string", "trace.json", "hooi,sthosvd", false,
       "Chrome trace_event output path for --profile"},
      {"Print options", "bool", "false", "hooi,sthosvd", false,
       "echo the parsed parameter file"},
      {"Print timings", "bool", "false", "hooi,sthosvd", false,
       "print the per-phase timing breakdown"},
  };
  return kTable;
}

std::string param_help(const std::string& scope) {
  std::ostringstream os;
  os << "Parameter file keys (\"Key = value\"; '#' starts a comment):\n";
  for (const ParamKey& k : param_key_table()) {
    const std::string scopes = std::string(",") + k.scope + ",";
    if (scopes.find("," + scope + ",") == std::string::npos) continue;
    std::string head = std::string("  ") + k.key + " <" + k.type + ">";
    if (head.size() < 38) head.resize(38, ' ');
    os << head << " " << k.help << "\n";
    os << std::string(39, ' ') << "default: " << k.fallback << "\n";
  }
  return os.str();
}

}  // namespace rahooi::io
