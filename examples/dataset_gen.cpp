//===- dataset_gen.cpp - synthetic Table I dataset emitter ---------------------===//
//
// Part of the mfsa project. MIT License.
//
// Materializes one of the calibrated Table I stand-in datasets
// (workload/Datasets.h) onto disk, so shell-level consumers — the CI
// artifact round-trip job, the cli robustness tests, ad-hoc benchmarking —
// can drive mfsac and imfant_run with realistic inputs without linking the
// library:
//
//   $ ./dataset_gen -n 64 -b 65536 -o outdir BRO
//
// writes outdir/bro.rules (one RE per line) and outdir/bro.stream (binary,
// with matches planted at the dataset's density). Generation is seeded and
// deterministic: same flags, same bytes.
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"
#include "workload/Datasets.h"

#include "CliInput.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mfsa;

static void usage(const char *Prog) {
  // The abbreviation list comes from the dataset table findDataset reads,
  // so it cannot drift from what is accepted.
  std::string Abbrevs;
  for (const DatasetSpec &Spec : standardDatasets())
    Abbrevs += (Abbrevs.empty() ? "" : ", ") + Spec.Abbrev;
  std::fprintf(stderr,
               "usage: %s [-n rules] [-b bytes] [-o outdir] ABBREV\n"
               "  ABBREV      dataset abbreviation: %s\n"
               "  -n rules    cap the ruleset at this many rules "
               "(default: full calibrated size)\n"
               "  -b bytes    stream size in bytes (default 65536)\n"
               "  -o outdir   output directory (default .)\n"
               "writes <outdir>/<abbrev>.rules and <outdir>/<abbrev>.stream\n",
               Prog, Abbrevs.c_str());
}

int main(int argc, char **argv) {
  uint32_t NumRules = 0;
  size_t StreamBytes = 65536;
  std::string OutDir = ".";
  std::string Abbrev;

  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "-n") && I + 1 < argc)
      NumRules = static_cast<uint32_t>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "-b") && I + 1 < argc)
      StreamBytes = static_cast<size_t>(std::atoll(argv[++I]));
    else if (!std::strcmp(argv[I], "-o") && I + 1 < argc)
      OutDir = argv[++I];
    else if (argv[I][0] == '-') {
      usage(argv[0]);
      return cli::kExitUsage;
    } else
      Abbrev = argv[I];
  }
  if (Abbrev.empty() || StreamBytes == 0) {
    usage(argv[0]);
    return cli::kExitUsage;
  }

  const DatasetSpec *Spec = findDataset(Abbrev);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown dataset %s\n", Abbrev.c_str());
    return cli::kExitUsage;
  }

  DatasetSpec Sized = *Spec;
  if (NumRules != 0)
    Sized.NumRes = std::min(Sized.NumRes, NumRules);
  std::vector<std::string> Patterns = generateRuleset(Sized);
  std::string Stream = generateStream(Sized, Patterns, StreamBytes);

  std::string Stem = Sized.Abbrev;
  std::transform(Stem.begin(), Stem.end(), Stem.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  const std::string RulesPath = OutDir + "/" + Stem + ".rules";
  const std::string StreamPath = OutDir + "/" + Stem + ".stream";

  std::string RulesText;
  for (const std::string &P : Patterns) {
    RulesText += P;
    RulesText += '\n';
  }
  if (!saveFile(RulesPath, RulesText)) {
    std::fprintf(stderr, "error: cannot write %s\n", RulesPath.c_str());
    return cli::kExitRuntime;
  }
  if (!saveFile(StreamPath, Stream)) {
    std::fprintf(stderr, "error: cannot write %s\n", StreamPath.c_str());
    return cli::kExitRuntime;
  }
  std::printf("%s: %zu rules -> %s, %zu stream bytes -> %s\n",
              Sized.Name.c_str(), Patterns.size(), RulesPath.c_str(),
              Stream.size(), StreamPath.c_str());
  return 0;
}
