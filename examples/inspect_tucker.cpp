// Inspect and partially decompress a compressed Tucker file produced by
// quickstart / the drivers — demonstrating the Tucker-format advantage the
// paper's introduction highlights: subtensors can be decompressed without
// reconstructing the full tensor (fast visualization of time steps or
// spatial regions).
//
// Run: ./inspect_tucker <file.rhk> [mode offset extent]...
// e.g. ./inspect_tucker quickstart_compressed.rhk 0 10 4

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.hpp"
#include "example_util.hpp"
#include "io/tensor_io.hpp"

using namespace rahooi;

namespace {

template <typename T>
void inspect(int argc, char** argv) {
  const auto t = io::read_tucker<T>(argv[1]);
  std::printf("Tucker tensor: dims %s, ranks %s\n",
              examples::dims_to_string(t.full_dims()).c_str(),
              examples::dims_to_string(t.ranks()).c_str());
  std::printf("compressed size %lld entries (%.1fx compression)\n",
              static_cast<long long>(t.compressed_size()),
              t.compression_ratio());

  // Region: full tensor by default, overridden per mode from arguments.
  std::vector<la::idx_t> offsets(t.ndims(), 0);
  std::vector<la::idx_t> extents = t.full_dims();
  for (int i = 2; i + 2 < argc; i += 3) {
    const int mode = std::atoi(argv[i]);
    offsets[mode] = std::atoll(argv[i + 1]);
    extents[mode] = std::atoll(argv[i + 2]);
  }

  Stopwatch clock;
  auto region = t.reconstruct_region(offsets, extents);
  const double seconds = clock.elapsed();

  double mn = region[0], mx = region[0], sum = 0;
  for (la::idx_t i = 0; i < region.size(); ++i) {
    mn = std::min<double>(mn, region[i]);
    mx = std::max<double>(mx, region[i]);
    sum += region[i];
  }
  std::printf("decompressed region %s at offset %s in %.4fs\n",
              examples::dims_to_string(extents).c_str(),
              examples::dims_to_string(offsets).c_str(), seconds);
  std::printf("region stats: min %.4g  max %.4g  mean %.4g  norm %.4g\n",
              mn, mx, sum / static_cast<double>(region.size()),
              region.norm());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.rhk> [mode offset extent]...\n", argv[0]);
    return 1;
  }
  try {
    // The file's header says whether it holds float or double entries.
    if (io::tucker_element_size(argv[1]) == sizeof(double)) {
      inspect<double>(argc, argv);
    } else {
      inspect<float>(argc, argv);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
