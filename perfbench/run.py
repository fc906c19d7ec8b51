"""Quickstart-stage benchmark for amr2text.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {prep,train,decode} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it name every metric with its unit, the verdict of every
output check, the output digests and the environment.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prep", "train", "decode")
END_TO_END = (
    ("prep_pairs_per_s", "1/s"), ("score_sent_per_s", "1/s"),
    ("denoise_tok_per_s", "1/s"), ("lm_tok_per_s", "1/s"), ("train_tok_per_s", "1/s"),
    ("beam_sent_per_s", "1/s"), ("greedy_sent_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# Corpus sizes shared by every workload, in pairs per language.
N_TRAIN = 160
N_VALID = 4
N_TEST = 4
N_DECODE = 12      # held-out graphs, the decoding inputs
N_LM = 32          # monolingual lines per language for pretrain-decoder
N_DENOISE = 16     # graphs for pretrain-encoder, two noise rounds each
MERGES = 2000      # per BPE model, so both vocabularies exceed 2,000 pieces
UPDATES = 16       # per training phase; fewer leave the loss check to chance


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _sizes(workload: str, seconds: int) -> dict[str, int]:
    """Work per run, a fixed function of the workload and --seconds.

    A run is ``rounds`` rounds, and the workload's own stage opens each.
    Train runs its single block, ``updates`` per phase, in the first round.
    At the seed commit on a 2-core x86 machine the own stage then takes
    about ``seconds`` in all.
    """
    return {
        "rounds": min(N_DECODE, max(3, round(seconds / 3.3))),
        "updates": max(UPDATES, round(seconds * 1.6)) if workload == "train" else UPDATES,
    }


def _environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as f:
                    commit = f.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark invocation: its work directory and what it gathered.

    Rates pool every pass of a stage, as work over time: this machine's
    speed shifts by up to half between regimes a few seconds long, so
    passes are spread over the whole run and summed rather than taken from
    one stretch of it.
    """

    def __init__(self, workload: str, seed: int, seconds: int, work: str):
        import stages  # imports amr2text, so only after main() has put src/ on the path

        self.stages = stages
        self.workload = workload
        self.seed = seed
        self.sizes = _sizes(workload, seconds)
        self.layout = stages.Layout(work)
        self.cli = stages.Cli()
        self.results: dict[str, object] = {}
        self.work: dict[str, float] = defaultdict(float)
        self.seconds: dict[str, float] = defaultdict(float)
        self.report: dict[str, object] = {"sizes": self.sizes}
        self.setup_times: list[float] = []
        self.prep_tag = "prep0"

    def _keep(self, stage: str, run_stage) -> object:
        """Run one pass into a fresh directory and record its result."""
        n = sum(name.startswith(stage) for name in self.results)
        tag = f"{stage}{n}"
        res = self.results[tag] = run_stage(tag)
        return res

    def _pool(self, metric: str, work: float, seconds: float) -> None:
        self.work[metric] += work
        self.seconds[metric] += seconds

    def _same_as_first(self, stage: str, res) -> None:
        """A pass repeating the first pass's work must write the same files."""
        first = self.results[f"{stage}0"]
        if res is not first:
            res.check(f"{stage}.same_outputs_as_first_pass", res.digests == first.digests,
                      res.attempted)

    def setup(self) -> None:
        """Generate the inputs; repeats rewrite the same bytes."""
        start = time.perf_counter()
        self.split_sizes = self.stages.write_inputs(
            self.layout, self.seed, N_TRAIN, N_VALID, N_TEST, N_DECODE, N_LM, N_DENOISE)
        self.setup_times.append(time.perf_counter() - start)

    def checkpoint(self) -> None:
        start = time.perf_counter()
        self.model = self.stages.make_checkpoint(self.layout, self.prep_tag, self.seed)
        self.report["checkpoint_s"] = time.perf_counter() - start

    def prep(self) -> None:
        res = self._keep("prep", lambda tag: self.stages.prep(
            self.cli, self.layout, tag, self.split_sizes, MERGES))
        self._same_as_first("prep", res)
        self._pool("prep_pairs_per_s", res.counts["pairs"], res.seconds["prep"])

    def score(self) -> None:
        res = self._keep("score", lambda tag: self.stages.score(
            self.cli, self.layout, tag, self.seed))
        self._same_as_first("score", res)
        self._pool("score_sent_per_s", res.counts["sentences"], res.seconds["score"])

    def train(self) -> None:
        res = self._keep("train", lambda tag: self.stages.train(
            self.cli, self.layout, tag, self.prep_tag, self.seed, self.sizes["updates"]))
        for phase in ("denoise", "lm", "train"):
            self._pool(f"{phase}_tok_per_s", res.counts[f"{phase}_tokens"], res.seconds[phase])

    def decode(self, jobs, line: int, checked=()) -> None:
        res = self._keep("decode", lambda tag: self.stages.decode(
            self.cli, self.layout, tag, self.prep_tag, self.model, jobs, line, set(checked)))
        for kind in ("beam", "greedy"):
            if kind in res.seconds:
                self._pool(f"{kind}_sent_per_s", res.counts[f"{kind}_sentences"],
                           res.seconds[kind])

    def own_stage(self, rnd: int) -> None:
        """The workload's own stage, first in round ``rnd``."""
        if self.workload == "prep":
            self.prep()
            self.score()
            self.score()
        elif self.workload == "train":
            if rnd == 0:
                self.train()
        else:
            jobs = [(kind, lang) for lang in self.stages.LANGS for kind in ("beam", "greedy")]
            self.decode(jobs, rnd, checked=[("beam", "en"), ("greedy", "de")] if rnd == 0 else ())

    def other_stages(self, rnd: int) -> None:
        """The rest of the chain, once per round at its smallest size."""
        if self.workload != "prep":
            # two short scoring passes a round, as in prep's own stage
            self.score()
            self.score()
        if self.workload != "decode":
            # one beam-5 and one beam-1 input a round, languages alternating
            langs = self.stages.LANGS
            jobs = [("beam", langs[rnd % 2]), ("greedy", langs[(rnd + 1) % 2])]
            self.decode(jobs, rnd, checked=[("greedy", "de")] if rnd == 0 else ())
        if self.workload != "train" and rnd == 1:
            self.train()
        if self.workload != "prep" and rnd == self.sizes["rounds"] - 1:
            self.prep()

    def rates(self) -> dict[str, float]:
        return {name: self.work[name] / self.seconds[name] for name in self.work}

    def outcome(self) -> tuple[bool, int, int]:
        attempted = sum(r.attempted for r in self.results.values())
        failed = sum(r.failed for r in self.results.values())
        checks_ok = all(ok for r in self.results.values() for ok in r.checks.values())
        return checks_ok and failed == 0, attempted, failed


def _measured_run(run: Run) -> dict:
    run.setup()
    if run.workload != "prep":
        run.prep()  # the BPE models and corpus every other stage reads
        run.checkpoint()
    peak = None
    for rnd in range(run.sizes["rounds"]):
        run.own_stage(rnd)
        if peak is None:
            # Read before any other stage runs, so each workload's peak is its own.
            peak = _peak_rss_mb()
        if run.workload == "prep" and rnd == 0:
            run.checkpoint()
        run.other_stages(rnd)
        # Set-up again once a round, so its median spans the run like the rates.
        run.setup()
    run.report["setup_runs_s"] = run.setup_times
    values = dict(run.rates(), setup_s=statistics.median(run.setup_times), peak_rss_mb=peak)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _traced_run(run: Run, trace_path: str) -> dict:
    """The workload's own stage once untraced, then once traced."""
    import tracing

    run.setup()
    if run.workload != "prep":
        run.prep()
        run.checkpoint()
    before = set(run.results)
    start = run.cli.wall
    run.own_stage(0)
    untraced = run.cli.wall - start
    plain = [res for tag, res in run.results.items() if tag not in before]
    before = set(run.results)
    tracer = tracing.Tracer()
    run.cli = run.stages.Cli(tracer)
    run.own_stage(0)
    traced = run.cli.wall
    for res, same_work in zip([r for t, r in run.results.items() if t not in before], plain):
        res.check("trace.outputs_unchanged", res.digests == same_work.digests, res.attempted)
    tracer.write(trace_path)
    run.report["own_stage_untraced_s"] = untraced
    run.report["own_stage_traced_s"] = traced
    run.report["self_s"] = tracer.self_seconds()
    return tracer.metrics(traced, untraced)


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "amr2text")):
        print(f"error: no amr2text sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            metrics = _traced_run(run, os.path.join(out_dir, f"trace-{args.workload}.tsv"))
        else:
            metrics = _measured_run(run)
    except run.stages.StageFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed = run.outcome()

    print(f"# environment {json.dumps(_environment(args.seed), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# run {json.dumps(run.report, sort_keys=True)}")
    for name, res in run.results.items():
        print(f"# phase {name} attempted {res.attempted} failed {res.failed} "
              f"seconds {json.dumps(res.seconds, sort_keys=True)} "
              f"counts {json.dumps(res.counts, sort_keys=True)}")
        for check, ok in res.checks.items():
            print(f"# check {name} {check} {'PASS' if ok else 'FAIL'}")
        for path, digest in sorted(res.digests.items()):
            print(f"# digest {name} {path} {digest}")
    for name, metric in metrics.items():
        print(f"# metric {name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
