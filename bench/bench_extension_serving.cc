// Extension bench (beyond the paper's tables): multilevel heavy-edge
// coarsening as an extra task-agnostic reduction baseline (the paper's §V-B
// surveys coarsening but does not evaluate it), served through the same aM
// path as every other method.
#include <iostream>

#include "coarsen/coarsening.h"
#include "common.h"

namespace {

using namespace mcond;
using namespace mcond::bench;

}  // namespace

int main() {
  const BenchContext ctx = GetBenchContext();
  std::cout << "=== Extension: coarsening baseline ===\n";
  for (const std::string& name : ctx.datasets) {
    const DatasetSpec spec = SpecForBench(name, ctx);
    const double ratio = spec.reduction_ratios.back();
    InductiveDataset data = MakeDataset(spec, 1200);
    const int64_t n_syn = SyntheticNodeCount(data.train_graph, ratio);

    // Artifacts: coarsening vs MCond.
    Rng coarse_rng(1201);
    CondensedGraph coarse = CoarsenGraph(data.train_graph, n_syn,
                                         CoarseningConfig{}, coarse_rng);
    MCondConfig config = ConfigForDataset(spec, ctx.fast);
    MCondResult mcond =
        RunMCond(data.train_graph, data.val, n_syn, config, 1200);

    std::unique_ptr<GnnModel> model_o =
        TrainSgcOn(data.train_graph, 1202, ctx.fast ? 60 : 200);
    Rng rng(1203);

    std::cout << "\n--- " << spec.name << " (N'=" << n_syn << ") ---\n";
    ResultTable table({"method", "acc(graph)", "acc(node)", "time(ms)"});
    for (const auto& [label, cg] :
         {std::pair<const char*, const CondensedGraph*>{"Coarsen", &coarse},
          {"MCond_OS", &mcond.condensed}}) {
      InferenceResult gb =
          ServeOnCondensed(*model_o, *cg, data.test, true, rng, 3);
      InferenceResult nb =
          ServeOnCondensed(*model_o, *cg, data.test, false, rng, 3);
      table.AddRow({label, FormatFloat(gb.accuracy * 100, 2),
                    FormatFloat(nb.accuracy * 100, 2),
                    FormatMillis(gb.seconds)});
    }
    table.Print();
  }
  return 0;
}
