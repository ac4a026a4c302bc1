"""``python -m repro`` — the command-line front door.

Six subcommands, all built on :class:`repro.service.MaskOptService`:

* ``optimize``  — run one engine over a clip suite (generated tiny /
  via / metal benches), print the rows, optionally dump JSON.
* ``train-surrogate`` — train the CFNO-lite litho surrogate on a seeded
  exact-labeled dataset (with litho-guided self-training) and save a
  checkpoint for ``optimize --engine surrogate --opt checkpoint=...``.
* ``serve``     — run the suite through the always-on async daemon
  (:class:`repro.service.MaskOptDaemon`): persistent warm worker pools,
  work-stealing dispatch, admission control, streaming verification.
* ``resume``    — finish an interrupted ``optimize --journal`` / ``serve
  --journal`` run from its outcome journal: completed clips are replayed
  from disk, only the unfinished ones are re-dispatched.
* ``table``     — regenerate the paper's Table 1 / Table 2 through the
  service-routed experiment drivers.
* ``bench-info``— show the serving environment: version, array backend,
  engine registry, kernel-spectra store state.

Examples::

    python -m repro optimize --suite tiny --engine mbopc
    python -m repro optimize --suite via --count 2 --engine camo \
        --opt policy_temperature=1e6 --json results.json
    python -m repro optimize --suite via --engine mbopc --workers 4 \
        --store /tmp/spectra --journal sweep.journal
    python -m repro resume --suite via --engine mbopc --workers 4 \
        --store /tmp/spectra --journal sweep.journal
    python -m repro serve --suite via --count 4 --engine mbopc \
        --workers 2 --stats-json serve_stats.json
    python -m repro table --which 1 --scale smoke
    python -m repro bench-info

``optimize --workers N`` process-shards the suite: N spawned workers
split the clip list, rebuild the engine from the same config, share the
kernel-spectra store, and stream results back while verification drains
full shape bins concurrently (:mod:`repro.service.sharding`).  Sharded
numbers are bit-for-bit identical to ``--workers 1``.

Serving knobs: ``--retries N`` caps re-dispatch after infrastructure
faults (worker crash, stall kill), ``--deadline S`` bounds each clip's
wall-clock, and ``--journal PATH`` appends every admission and verified
result to a crash-safe write-ahead log (:mod:`repro.service.journal`)
that ``resume`` replays.

The kernel-spectra store directory comes from ``--store`` or the
``REPRO_SPECTRA_STORE`` environment variable; with either set, fresh
processes skip the per-shape TCC warmup (:mod:`repro.litho.store`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from repro.errors import ReproError
from repro.version import __version__


def _coerce_override_value(raw: str) -> Any:
    """Best-effort scalar coercion for ``--opt`` values.

    Beyond plain JSON this accepts what people actually type on a shell:
    ``True``/``FALSE`` capitalization variants, bare scientific notation
    and leading-dot floats (``1e-3``, ``.5``, ``+2``), and ``None``.  A
    value wrapped in matching quotes is *always* a string with the
    quotes stripped — ``--opt 'tag="1e-3"'`` stays ``"1e-3"``, never
    0.001 — because that is the only way to force a numeric-looking
    string through.
    """
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("null", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_override(text: str) -> tuple[str, Any]:
    """``key=value`` with scalar value coercion (int/float/bool/str)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must look like key=value"
        )
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise argparse.ArgumentTypeError(
            f"override {text!r} has an empty key"
        )
    return key, _coerce_override_value(raw)


def _nonneg_int(text: str) -> int:
    """Argparse type for ``--retries``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type for ``--deadline``: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _write_json(path: str, payload: Any) -> None:
    """Atomic JSON dump: temp file in the destination directory, then
    ``os.replace`` — a killed CLI never leaves a torn half-written file
    where a monitoring script expects parseable output."""
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-json-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _build_clips(args) -> list:
    """Clip list for ``--suite`` / ``--count`` / ``--names``.

    ``--count 0`` (the default) means "the suite's own size" (one clip
    for the generated tiny suite); a positive count truncates — and, for
    tiny, *generates* — that many clips.  ``--names`` selects from the
    fixed via/metal benches and is an error with ``--suite tiny``
    (whose clips are generated on demand, so there is nothing to select
    from — silently ignoring the flag ran the wrong clips).  Name
    filtering applies before ``--count`` truncation.
    """
    from repro.data.metal_bench import metal_test_suite
    from repro.data.via_bench import generate_via_clip, via_test_suite

    if args.count < 0:
        raise ReproError(f"--count must be >= 0, got {args.count}")
    if args.suite == "tiny":
        if args.names:
            raise ReproError(
                "--names selects clips from the fixed via/metal suites; "
                "the tiny suite is generated on demand (use --count to "
                "size it)"
            )
        return [
            generate_via_clip(
                f"tiny{i + 1}", n_vias=2, seed=7 + i, clip_nm=1024.0
            )
            for i in range(args.count or 1)
        ]
    clips = via_test_suite() if args.suite == "via" else metal_test_suite()
    if args.names:
        wanted = {name.strip() for name in args.names.split(",")}
        clips = [clip for clip in clips if clip.name in wanted]
        missing = wanted - {clip.name for clip in clips}
        if missing:
            raise ReproError(
                f"unknown clip name(s): {', '.join(sorted(missing))}"
            )
    if args.count:
        clips = clips[: args.count]
    return clips


def _store_root(args) -> str | None:
    from repro.litho.store import KernelSpectraStore

    if getattr(args, "store", None):
        return args.store
    store = KernelSpectraStore.from_env()
    return store.root if store is not None else None


def cmd_optimize(args) -> int:
    from repro.litho.simulator import LithoConfig
    from repro.service import MaskOptService, OptRequest

    config = LithoConfig(
        pixel_nm=args.pixel_nm,
        max_kernels=args.max_kernels,
        backend=args.backend,
        device=args.device,
        spectra_store=_store_root(args),
    )
    service = MaskOptService(litho_config=config)
    clips = _build_clips(args)
    if not clips:
        raise ReproError("no clips selected")
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    overrides = dict(args.opt or [])
    verify = not args.no_verify
    shard_kwargs: dict[str, Any] = {}
    if args.retries is not None:
        shard_kwargs["retries"] = args.retries
    if args.deadline is not None:
        shard_kwargs["deadline_s"] = args.deadline
    if args.workers > 1 or args.journal:
        # Process-sharded sweep: N spawned workers share the spectra
        # store and stream outcomes back for overlapped verification.
        # --journal routes here even at --workers 1: journaling needs
        # the spawnable EngineSpec whose fingerprint stamps each record.
        results = service.run_suite_sharded(
            args.engine, clips, workers=args.workers,
            engine_overrides=overrides, verify=verify,
            journal=args.journal, **shard_kwargs,
        )
    else:
        for clip in clips:
            service.submit(OptRequest(
                clip=clip,
                engine=args.engine,
                engine_overrides=overrides,
                verify=verify,
            ))
        results = service.run_all(verify=verify)

    header = (
        f"{'clip':12s} {'EPE (nm)':>10s} {'PVB (nm^2)':>12s} "
        f"{'RT (s)':>8s} {'steps':>5s}  verified"
    )
    print(f"repro optimize: engine={args.engine} suite={args.suite} "
          f"clips={len(clips)} pixel={args.pixel_nm} nm "
          f"workers={args.workers}")
    print(header)
    verified_marks = {"verified": "ok", "unverified": "-",
                      "unverifiable": "n/a"}
    for result in results:
        verified = verified_marks.get(result.outcome, result.outcome)
        print(
            f"{result.clip_name:12s} {result.epe_nm:10.3f} "
            f"{result.pvband_nm2:12.1f} {result.runtime_s:8.2f} "
            f"{result.steps:5d}  {verified}"
        )
    total_epe = sum(result.epe_nm for result in results)
    total_rt = sum(result.runtime_s for result in results)
    print(f"{'total':12s} {total_epe:10.3f} {'':12s} {total_rt:8.2f}")
    stats = service.stats()
    print(f"verification: {stats['verify_items']} masks in "
          f"{stats['verify_batch_calls']} batched litho calls")
    if "spectra_store" in stats:
        store = stats["spectra_store"]
        print(f"spectra store: {store['root']} "
              f"(hits {store['hits']}, writes {store['writes']})")
    if args.journal:
        print(f"journal: {args.journal} (resume with `python -m repro "
              f"resume --journal {args.journal} ...`)")

    if args.json:
        payload = {
            "command": "optimize",
            "engine": args.engine,
            "suite": args.suite,
            "workers": args.workers,
            "engine_overrides": overrides,
            "results": [result.to_dict() for result in results],
            "totals": {"epe_nm": total_epe, "runtime_s": total_rt},
            "service_stats": stats,
            "version": __version__,
        }
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


def cmd_resume(args) -> int:
    """Finish an interrupted journaled run: replay completed clips from
    the journal, re-dispatch only the remainder, print the merged
    suite."""
    from repro.litho.simulator import LithoConfig
    from repro.service import MaskOptService, resume_suite

    config = LithoConfig(
        pixel_nm=args.pixel_nm,
        max_kernels=args.max_kernels,
        backend=args.backend,
        device=args.device,
        spectra_store=_store_root(args),
    )
    service = MaskOptService(litho_config=config)
    clips = _build_clips(args)
    if not clips:
        raise ReproError("no clips selected")
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    overrides = dict(args.opt or [])
    run_kwargs: dict[str, Any] = {}
    if args.retries is not None:
        run_kwargs["retries"] = args.retries
    if args.deadline is not None:
        run_kwargs["deadline_s"] = args.deadline
    results, replayed = resume_suite(
        service, args.engine, clips, args.journal,
        workers=args.workers, engine_overrides=overrides,
        verify=not args.no_verify, **run_kwargs,
    )
    print(f"repro resume: engine={args.engine} suite={args.suite} "
          f"clips={len(clips)} workers={args.workers} "
          f"journal={args.journal}")
    print(f"replayed {replayed} completed clip(s) from the journal, "
          f"re-ran {len(clips) - replayed}")
    print(f"{'clip':12s} {'EPE (nm)':>10s} {'PVB (nm^2)':>12s} "
          f"{'RT (s)':>8s} {'steps':>5s}  verified")
    verified_marks = {"verified": "ok", "unverified": "-",
                      "unverifiable": "n/a"}
    for result in results:
        verified = verified_marks.get(result.outcome, result.outcome)
        print(
            f"{result.clip_name:12s} {result.epe_nm:10.3f} "
            f"{result.pvband_nm2:12.1f} {result.runtime_s:8.2f} "
            f"{result.steps:5d}  {verified}"
        )
    total_epe = sum(result.epe_nm for result in results)
    total_rt = sum(result.runtime_s for result in results)
    print(f"{'total':12s} {total_epe:10.3f} {'':12s} {total_rt:8.2f}")
    if args.json:
        payload = {
            "command": "resume",
            "engine": args.engine,
            "suite": args.suite,
            "workers": args.workers,
            "engine_overrides": overrides,
            "journal": args.journal,
            "replayed": replayed,
            "results": [result.to_dict() for result in results],
            "totals": {"epe_nm": total_epe, "runtime_s": total_rt},
            "version": __version__,
        }
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


def cmd_serve(args) -> int:
    """Drive the always-on daemon: submit the suite as individual
    requests (retrying through ``ServiceBusy`` backpressure), stream
    results back in completion order, and report serving stats."""
    import asyncio

    from repro.errors import ServiceBusy
    from repro.litho.simulator import LithoConfig
    from repro.service import MaskOptDaemon, OptRequest

    config = LithoConfig(
        pixel_nm=args.pixel_nm,
        max_kernels=args.max_kernels,
        backend=args.backend,
        device=args.device,
        spectra_store=_store_root(args),
    )
    clips = _build_clips(args)
    if not clips:
        raise ReproError("no clips selected")
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    overrides = dict(args.opt or [])
    verify = not args.no_verify

    daemon_kwargs: dict[str, Any] = {}
    if args.retries is not None:
        daemon_kwargs["retries"] = args.retries
    if args.deadline is not None:
        daemon_kwargs["deadline_s"] = args.deadline

    async def run():
        daemon = MaskOptDaemon(
            litho_config=config,
            workers=args.workers,
            dispatch=args.dispatch,
            max_pending=args.max_pending,
            journal=args.journal,
            **daemon_kwargs,
        )
        async with daemon:
            tickets = []
            for clip in clips:
                request = OptRequest(
                    clip=clip, engine=args.engine,
                    engine_overrides=overrides, verify=verify,
                )
                while True:
                    try:
                        tickets.append(await daemon.submit(request))
                        break
                    except ServiceBusy:
                        # Admission control said back off; results keep
                        # streaming while we wait for headroom.
                        await asyncio.sleep(0.05)
            results = []
            async for result in daemon.results(tickets):
                results.append(result)
            return results, daemon.stats()

    results, stats = asyncio.run(run())
    print(f"repro serve: engine={args.engine} suite={args.suite} "
          f"clips={len(clips)} workers={args.workers} "
          f"dispatch={args.dispatch}")
    print(f"{'clip':12s} {'EPE (nm)':>10s} {'PVB (nm^2)':>12s} "
          f"{'RT (s)':>8s} {'steps':>5s}  verified")
    verified_marks = {"verified": "ok", "unverified": "-",
                      "unverifiable": "n/a"}
    for result in sorted(results, key=lambda r: r.request_id):
        verified = verified_marks.get(result.outcome, result.outcome)
        print(
            f"{result.clip_name:12s} {result.epe_nm:10.3f} "
            f"{result.pvband_nm2:12.1f} {result.runtime_s:8.2f} "
            f"{result.steps:5d}  {verified}"
        )
    service_stats = stats["service"]
    print(f"daemon: {stats['submitted']} submitted, "
          f"{stats['completed']} completed, {stats['failed']} failed, "
          f"{stats['rejected']} shed by admission control")
    print(f"verification: {service_stats['verify_items']} masks in "
          f"{service_stats['verify_batch_calls']} batched litho calls")
    if args.journal:
        print(f"journal: {args.journal}")
    if args.stats_json:
        payload = {
            "command": "serve",
            "engine": args.engine,
            "suite": args.suite,
            "workers": args.workers,
            "dispatch": args.dispatch,
            "results": [result.to_dict() for result in results],
            "daemon_stats": stats,
            "version": __version__,
        }
        _write_json(args.stats_json, payload)
        print(f"wrote {args.stats_json}")
    return 0


def cmd_train_surrogate(args) -> int:
    """Train the CFNO-lite litho surrogate and save a checkpoint.

    The dataset is seeded and exact-labeled, training is deterministic
    (same flags -> byte-identical checkpoint), and litho-guided
    self-training rounds re-label the worst self-predicted samples with
    the exact engine before continuing.
    """
    import time

    from repro.litho.simulator import LithoConfig, LithographySimulator
    from repro.surrogate import (
        SurrogateTrainConfig,
        save_surrogate,
        train_surrogate,
    )

    config = LithoConfig(
        pixel_nm=args.pixel_nm,
        max_kernels=args.max_kernels,
        backend=args.backend,
        device=args.device,
        spectra_store=_store_root(args),
    )
    simulator = LithographySimulator(config)
    train_config = SurrogateTrainConfig(
        width=args.width,
        n_clips=args.clips,
        samples_per_clip=args.samples,
        clip_nm=args.clip_nm,
        steps=args.steps,
        lr=args.lr,
        seed=args.seed,
        selftrain_rounds=args.selftrain_rounds,
        selftrain_pool=args.selftrain_pool,
        selftrain_keep=args.selftrain_keep,
        selftrain_steps=args.selftrain_steps,
    )
    start = time.perf_counter()
    model, report = train_surrogate(simulator, train_config)
    elapsed = time.perf_counter() - start
    save_surrogate(args.out, model)
    print(f"repro train-surrogate: width={args.width} steps={report.steps} "
          f"samples={report.samples} seed={args.seed}")
    print(f"final loss    : {report.final_loss:.3e}")
    for index, round_info in enumerate(report.selftrain_rounds):
        print(f"self-train {index + 1}  : relabeled "
              f"{round_info['relabeled']}/{round_info['pool']} pool samples "
              f"(worst MSE {round_info['worst_mse']:.3e}, "
              f"mean {round_info['mean_mse']:.3e})")
    print(f"train time    : {elapsed:.1f} s")
    print(f"checkpoint    : {args.out}")
    if args.json:
        payload = {
            "command": "train-surrogate",
            "checkpoint": args.out,
            "config": {
                "width": args.width,
                "n_clips": args.clips,
                "samples_per_clip": args.samples,
                "clip_nm": args.clip_nm,
                "steps": args.steps,
                "lr": args.lr,
                "seed": args.seed,
                "selftrain_rounds": args.selftrain_rounds,
                "selftrain_pool": args.selftrain_pool,
                "selftrain_keep": args.selftrain_keep,
                "selftrain_steps": args.selftrain_steps,
            },
            "report": {
                "steps": report.steps,
                "samples": report.samples,
                "final_loss": report.final_loss,
                "selftrain_rounds": report.selftrain_rounds,
            },
            "train_time_s": elapsed,
            "version": __version__,
        }
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


def cmd_table(args) -> int:
    from repro.eval import experiments

    if args.which == 1:
        text, _ = experiments.table1(args.scale)
    else:
        text, _ = experiments.table2(args.scale)
    print(text)
    return 0


def cmd_bench_info(args) -> int:
    from repro.backend import (
        resolve_backend,
        scipy_fft_available,
        torch_available,
    )
    from repro.litho.simulator import LithoConfig, LithographySimulator
    from repro.litho.store import SPECTRA_STORE_ENV, open_store
    from repro.service import available_engines

    backend = resolve_backend(args.backend, device=args.device)
    print(f"repro {__version__}")
    print(f"python        : {sys.version.split()[0]}")
    print(f"cpu cores     : {os.cpu_count()}")
    print(f"scipy fft     : {'available' if scipy_fft_available() else 'absent'}")
    print(f"torch         : {'available' if torch_available() else 'absent'}")
    print(f"array backend : {args.backend!r} -> {backend.name} "
          f"(workers={backend.workers}, device={backend.device})")
    print(f"engines       : {', '.join(available_engines())}")

    root = _store_root(args)
    if root:
        store = open_store(root)
        print(f"spectra store : {store.root} ({store.entry_count()} entries)")
    else:
        print(f"spectra store : disabled (set --store or "
              f"${SPECTRA_STORE_ENV})")

    config = LithoConfig(
        pixel_nm=args.pixel_nm, max_kernels=args.max_kernels,
        backend=args.backend, device=args.device, spectra_store=root,
    )
    simulator = LithographySimulator(config)
    n = int(args.window_nm / config.pixel_nm)
    band = simulator.kernel_set(0.0).band_spectra((n, n))
    print(f"sample grid   : {n}x{n} @ {config.pixel_nm} nm -> "
          f"K={band.count} kernels, pupil band {band.band}, "
          f"subgrid {band.subgrid} (compact={band.compact})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_litho_knobs(p, max_kernels_default: int) -> None:
        p.add_argument("--pixel-nm", type=float, default=4.0,
                       help="raster pitch (default 4 nm)")
        p.add_argument("--max-kernels", type=int, default=max_kernels_default,
                       help="SOCS kernel cap per corner")
        p.add_argument("--backend", default="auto",
                       choices=["auto", "numpy", "scipy", "torch"],
                       help="array/device backend (default auto: scipy "
                            "threads when available, else numpy; torch "
                            "must be requested explicitly)")
        p.add_argument("--device", default=None, metavar="DEV",
                       help="device for the torch backend (cpu, cuda, "
                            "cuda:N; default: cuda when available)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="kernel-spectra store directory "
                            "(default: $REPRO_SPECTRA_STORE)")

    def add_delivery_knobs(p) -> None:
        p.add_argument("--retries", type=_nonneg_int, default=None,
                       metavar="N",
                       help="re-dispatch attempts after an infrastructure "
                            "fault (worker crash, stall kill) per clip "
                            "(default 2; engine exceptions never retry)")
        p.add_argument("--deadline", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="per-clip wall-clock budget from dispatch "
                            "(default: none)")
        p.add_argument("--journal", default=None, metavar="PATH",
                       help="append admissions and verified results to a "
                            "crash-safe journal; finish an interrupted "
                            "run with `python -m repro resume`")

    opt = sub.add_parser(
        "optimize", help="optimize a clip suite through the service"
    )
    opt.add_argument("--engine", default="mbopc",
                     help="registry engine name (default mbopc; see "
                          "bench-info for the list)")
    opt.add_argument("--suite", default="tiny",
                     choices=["tiny", "via", "metal"],
                     help="clip source (default: one tiny generated via clip)")
    opt.add_argument("--count", type=int, default=0,
                     help="limit the number of clips (0 = suite default)")
    opt.add_argument("--names", default=None,
                     help="comma-separated clip names to keep (via/metal)")
    opt.add_argument("--opt", action="append", type=_parse_override,
                     metavar="KEY=VALUE",
                     help="engine config override (repeatable)")
    opt.add_argument("--workers", type=int, default=1, metavar="N",
                     help="process-shard the suite across N spawned "
                          "workers sharing one kernel-spectra store; "
                          "verification streams while workers optimize "
                          "(default 1 = in-process)")
    opt.add_argument("--no-verify", action="store_true",
                     help="skip the batched re-simulation cross-check")
    opt.add_argument("--json", default=None, metavar="PATH",
                     help="write machine-readable results to PATH "
                          "(atomic write)")
    add_delivery_knobs(opt)
    add_litho_knobs(opt, max_kernels_default=6)
    opt.set_defaults(func=cmd_optimize)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted --journal run from its journal",
    )
    resume.add_argument("--engine", default="mbopc",
                        help="registry engine name (must match the "
                             "journaled run)")
    resume.add_argument("--suite", default="tiny",
                        choices=["tiny", "via", "metal"],
                        help="clip source (must match the journaled run)")
    resume.add_argument("--count", type=int, default=0,
                        help="limit the number of clips (0 = suite default)")
    resume.add_argument("--names", default=None,
                        help="comma-separated clip names to keep "
                             "(via/metal)")
    resume.add_argument("--opt", action="append", type=_parse_override,
                        metavar="KEY=VALUE",
                        help="engine config override (must match the "
                             "journaled run)")
    resume.add_argument("--workers", type=int, default=1, metavar="N",
                        help="workers for the re-dispatched remainder")
    resume.add_argument("--no-verify", action="store_true",
                        help="skip the batched re-simulation cross-check")
    resume.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results to PATH "
                             "(atomic write)")
    resume.add_argument("--journal", required=True, metavar="PATH",
                        help="outcome journal of the interrupted run")
    resume.add_argument("--retries", type=_nonneg_int, default=None,
                        metavar="N",
                        help="re-dispatch attempts after an "
                             "infrastructure fault (default 2)")
    resume.add_argument("--deadline", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="per-clip wall-clock budget (default: none)")
    add_litho_knobs(resume, max_kernels_default=6)
    resume.set_defaults(func=cmd_resume)

    serve = sub.add_parser(
        "serve", help="run the suite through the always-on async daemon"
    )
    serve.add_argument("--engine", default="mbopc",
                       help="registry engine name (default mbopc)")
    serve.add_argument("--suite", default="tiny",
                       choices=["tiny", "via", "metal"],
                       help="clip source (default: one tiny generated "
                            "via clip)")
    serve.add_argument("--count", type=int, default=0,
                       help="limit the number of clips (0 = suite default)")
    serve.add_argument("--names", default=None,
                       help="comma-separated clip names to keep (via/metal)")
    serve.add_argument("--opt", action="append", type=_parse_override,
                       metavar="KEY=VALUE",
                       help="engine config override (repeatable)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="persistent warm workers per engine pool "
                            "(default 2)")
    serve.add_argument("--dispatch", default="steal",
                       choices=["steal", "static"],
                       help="work-stealing shared queue (default) or the "
                            "static round-robin baseline")
    serve.add_argument("--max-pending", type=int, default=32, metavar="N",
                       help="per-tenant admission bound before requests "
                            "are shed with ServiceBusy (default 32)")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip the batched re-simulation cross-check")
    serve.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write results + serving metrics JSON to PATH "
                            "(atomic write)")
    add_delivery_knobs(serve)
    add_litho_knobs(serve, max_kernels_default=6)
    serve.set_defaults(func=cmd_serve)

    train = sub.add_parser(
        "train-surrogate",
        help="train the CFNO-lite litho surrogate and save a checkpoint",
    )
    train.add_argument("--out", required=True, metavar="PATH",
                       help="checkpoint output path (.npz, atomic write)")
    train.add_argument("--width", type=int, default=24,
                       help="spectral channels (default 24 = 2 corners x "
                            "max-kernels coherent fields)")
    train.add_argument("--clips", type=int, default=4,
                       help="generated via clips in the dataset (default 4)")
    train.add_argument("--samples", type=int, default=16,
                       help="perturbed masks per clip (default 16)")
    train.add_argument("--clip-nm", type=float, default=1024.0,
                       help="dataset clip window (default 1024 nm)")
    train.add_argument("--steps", type=int, default=400,
                       help="base Adam steps (default 400)")
    train.add_argument("--lr", type=float, default=3e-3,
                       help="Adam learning rate (default 3e-3)")
    train.add_argument("--seed", type=int, default=0,
                       help="dataset + init seed; fixed seed reproduces "
                            "the checkpoint byte for byte (default 0)")
    train.add_argument("--selftrain-rounds", type=int, default=2,
                       help="litho-guided self-training rounds (default 2; "
                            "0 disables)")
    train.add_argument("--selftrain-pool", type=int, default=16,
                       help="candidate pool per self-training round")
    train.add_argument("--selftrain-keep", type=int, default=6,
                       help="worst-fidelity samples re-labeled exactly and "
                            "appended per round")
    train.add_argument("--selftrain-steps", type=int, default=100,
                       help="fine-tune steps after each round")
    train.add_argument("--json", default=None, metavar="PATH",
                       help="write the training report to PATH (atomic "
                            "write)")
    add_litho_knobs(train, max_kernels_default=6)
    train.set_defaults(func=cmd_train_surrogate)

    table = sub.add_parser(
        "table", help="regenerate paper Table 1 / Table 2 via the service"
    )
    table.add_argument("--which", type=int, default=1, choices=[1, 2])
    table.add_argument("--scale", default=None,
                       choices=["smoke", "repro", "paper"],
                       help="effort profile (default: REPRO_SCALE or 'repro')")
    table.set_defaults(func=cmd_table)

    info = sub.add_parser(
        "bench-info", help="print the serving environment and optics summary"
    )
    info.add_argument("--window-nm", type=float, default=1024.0,
                      help="sample window for the band summary")
    add_litho_knobs(info, max_kernels_default=6)
    info.set_defaults(func=cmd_bench_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
