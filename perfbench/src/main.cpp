// perfbench — the benchmark binary. perfbench/run.py builds and
// launches it; it can also be run by hand:
//
//   perfbench run {dst_grid|smr_wal|smr_real} --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR]
//   perfbench probe --n N --t T --seed N [--out-dir DIR]
//   perfbench node-client ...        (see node_client.cpp)
//   perfbench selftest
//
// `run` and `probe` print the result as one JSON line, last on stdout.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "probes.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run {dst_grid|smr_wal|smr_real} --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       perfbench probe --n N --t T --seed N [--out-dir DIR]\n"
               "       perfbench node-client --ports P0,P1,.. --ops-per-node K "
               "--slots S --seed N\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return selftest_main();
  if (cmd == "node-client") return node_client_main(argc - 2, argv + 2);

  RunOptions opt;
  std::string workload;
  std::uint32_t n = 4, t = 1;
  int i = 2;
  if (cmd == "run") {
    if (argc < 3) return usage();
    workload = argv[2];
    i = 3;
  } else if (cmd != "probe") {
    return usage();
  }
  for (; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    try {
      if (flag == "--seed") {
        opt.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (flag == "--trace") {
        opt.trace = std::strcmp(val, "0") != 0;
      } else if (flag == "--out-dir") {
        opt.out_dir = val;
      } else if (flag == "--n") {
        n = static_cast<std::uint32_t>(std::stoul(val));
      } else if (flag == "--t") {
        t = static_cast<std::uint32_t>(std::stoul(val));
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (i != argc) return usage();

  Result r;
  if (cmd == "probe") {
    Tracer tracer(true);
    probe_layers(n, t, opt.seed, tracer, r.metrics);
    r.attempted = 1;
    dump_trace(opt, "probe", tracer, {});
  } else if (workload == "dst_grid") {
    r = run_dst_grid(opt);
  } else if (workload == "smr_wal") {
    r = run_smr_wal(opt);
  } else if (workload == "smr_real") {
    r = run_smr_real(opt);
  } else {
    return usage();
  }
  print_result(r);
  return 0;
}
