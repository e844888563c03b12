//===- abl_engine_variants.cpp - ablation G (engine layout) ------------------===//
//
// Part of the mfsa project. MIT License.
//
// Two frontier-driven layouts: the dense engine's (state, symbol) index
// (one lookup per active state finds its edges on the byte, and injection
// is a precomputed per-symbol list — ImfantEngine) versus a label-scanning
// state-major layout (walk every out-edge of each active and initial state
// and test its label — SparseImfantEngine). The gap grows with out-degree
// and with the number of initial states (Table II). The result names keep
// their historical `symbol_major_s` (dense) / `state_major_s` (sparse)
// spelling so committed baselines still compare.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/SparseImfant.h"
#include "mfsa/Merge.h"
#include "support/Timer.h"

using namespace mfsa;
using namespace mfsa::bench;

int main() {
  printHeader("Ablation G - (state, symbol)-indexed vs label-scanning layout",
              "§V engine design (iNFAnt layout choice)");
  BenchReport Report("abl_engine_variants",
                     "§V engine design (iNFAnt layout choice)");

  const std::vector<uint32_t> Factors = {1, 50, 0};
  std::printf("%-8s %5s %12s %12s %9s\n", "dataset", "M", "dense",
              "sparse", "ratio");
  for (const DatasetSpec &Spec : standardDatasets()) {
    CompiledDataset Dataset = compileDataset(Spec, streamBytes());
    for (uint32_t M : Factors) {
      std::vector<Mfsa> Groups = mergeInGroups(Dataset.OptimizedFsas, M);

      Timer DenseWall;
      uint64_t DenseMatches = 0;
      {
        for (const Mfsa &Z : Groups) {
          ImfantEngine Engine(Z);
          if (M == 0)
            Engine.setMetrics(&Report.registry());
          MatchRecorder Recorder;
          Engine.run(Dataset.Stream, Recorder);
          DenseMatches += Recorder.total();
        }
      }
      double DenseSec = DenseWall.elapsedSec();

      Timer SparseWall;
      uint64_t SparseMatches = 0;
      {
        for (const Mfsa &Z : Groups) {
          SparseImfantEngine Engine(Z);
          if (M == 0)
            Engine.setMetrics(&Report.registry());
          MatchRecorder Recorder;
          Engine.run(Dataset.Stream, Recorder);
          SparseMatches += Recorder.total();
        }
      }
      double SparseSec = SparseWall.elapsedSec();

      if (DenseMatches != SparseMatches) {
        std::fprintf(stderr, "MISMATCH on %s M=%u: %lu vs %lu matches\n",
                     Spec.Abbrev.c_str(), M,
                     static_cast<unsigned long>(DenseMatches),
                     static_cast<unsigned long>(SparseMatches));
        return 1;
      }
      std::printf("%-8s %5s %11.3fs %11.3fs %8.2fx\n", Spec.Abbrev.c_str(),
                  mergingFactorName(M).c_str(), DenseSec, SparseSec,
                  DenseSec / SparseSec);
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) +
                        ".symbol_major_s",
                    DenseSec, "s");
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) +
                        ".state_major_s",
                    SparseSec, "s");
    }
  }
  std::printf("\nratio > 1: the label-scanning sparse engine wins; engine "
              "construction time included for both (dominated by scanning "
              "at these stream sizes)\n");
  return 0;
}
