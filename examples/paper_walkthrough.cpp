// Paper walkthrough: renders the paper's own worked examples as Gantt
// charts at small scale, so you can SEE each theorem's mechanism:
//
//   1. Figure 2 — Batch paying ~2μ on the tightness family;
//   2. Figure 3 — Batch+ paying ~μ+1 (tight);
//   3. Theorem 4.1 — the golden-ratio dilemma posed to a clairvoyant
//      scheduler, and both possible outcomes.
#include <iostream>

#include "adversary/clairvoyant_lb.h"
#include "adversary/tightness.h"
#include "analysis/gantt.h"
#include "schedulers/batch.h"
#include "schedulers/batch_plus.h"
#include "schedulers/lazy.h"
#include "schedulers/profit.h"
#include "sim/engine.h"
#include "support/string_util.h"

namespace {

using namespace fjs;

void walkthrough_figure2() {
  std::cout << "================ Figure 2: Batch vs the tightness family"
               " (m=3, mu=2) ================\n"
               "Groups: zero-laxity unit jobs; unit jobs with laxity"
               " mu-eps; 2m length-mu jobs\nwith a common starting"
               " deadline. Batch keeps firing iterations that pair one\n"
               "short with one long job, stretching the span to 2m*mu.\n\n";
  const TightnessInstance tight = make_batch_tightness(3, 2.0, 0.05);
  BatchScheduler batch;
  const SimulationResult run = simulate(tight.instance, batch, false);
  std::cout << "--- Batch (span " << run.span().to_string() << ") ---\n"
            << render_gantt(run.instance, run.schedule) << '\n';
  std::cout << "--- Paper's near-optimal schedule (span "
            << tight.reference.span(tight.instance).to_string() << ") ---\n"
            << render_gantt(tight.instance, tight.reference) << '\n'
            << "ratio " << format_double(
                   time_ratio(run.span(), tight.reference.span(tight.instance)),
                   3)
            << "  ->  2*mu = 4 as m grows (Theorem 3.4)\n\n";
}

void walkthrough_figure3() {
  std::cout << "================ Figure 3: Batch+ tight family (m=3,"
               " mu=2) ================\n"
               "Each long job arrives just before the current flag"
               " completes, so Batch+ starts\nit eagerly — stringing"
               " nearly-disjoint (mu+1)-length blocks.\n\n";
  const TightnessInstance tight = make_batch_plus_tightness(3, 2.0, 0.05);
  BatchPlusScheduler bp;
  const SimulationResult run = simulate(tight.instance, bp, false);
  std::cout << "--- Batch+ (span " << run.span().to_string() << ") ---\n"
            << render_gantt(run.instance, run.schedule) << '\n';
  std::cout << "--- Paper's near-optimal schedule (span "
            << tight.reference.span(tight.instance).to_string() << ") ---\n"
            << render_gantt(tight.instance, tight.reference) << '\n'
            << "ratio " << format_double(
                   time_ratio(run.span(), tight.reference.span(tight.instance)),
                   3)
            << "  ->  mu+1 = 3 as m grows (Theorem 3.5, tight)\n\n";
}

void walkthrough_theorem41(OnlineScheduler& scheduler,
                           const std::string& label) {
  ClairvoyantAdversary adversary(ClairvoyantLbParams{.max_iterations = 4});
  NoDeferralOracle oracle;
  Engine engine(adversary, oracle, scheduler,
                EngineOptions{.clairvoyant = true});
  const SimulationResult run = engine.run();
  const Schedule reference = adversary.reference_schedule(run.instance);
  std::cout << "--- " << label << ": "
            << (adversary.stopped_early()
                    ? "refused the long job -> adversary stops"
                    : "kept starting long jobs -> adversary runs on")
            << " (measured ratio "
            << format_double(time_ratio(run.span(),
                                        reference.span(run.instance)),
                             3)
            << ", paper "
            << format_double(adversary.theoretical_ratio(), 3) << ") ---\n"
            << render_gantt(run.instance, run.schedule) << '\n';
}

}  // namespace

int main() {
  walkthrough_figure2();
  walkthrough_figure3();

  std::cout << "================ Theorem 4.1: the golden-ratio dilemma"
               " (n=4) ================\n"
               "Each iteration: a zero-laxity unit job plus a length-phi"
               " job with generous\nlaxity. Start the long job inside the"
               " unit window and the adversary repeats;\nrefuse and it"
               " stops. Either way the ratio tends to phi = 1.618.\n\n";
  LazyScheduler lazy;
  walkthrough_theorem41(lazy, "lazy (refuses immediately)");
  ProfitScheduler profit;
  walkthrough_theorem41(profit, "profit (rides through)");
  return 0;
}
