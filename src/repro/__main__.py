"""``python -m repro`` — the command-line front door.

Five subcommands, all built on :class:`repro.service.MaskOptService`:

* ``optimize``  — run one engine over a clip suite (generated tiny /
  via / metal benches), print the rows, optionally dump JSON.
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

``optimize --workers N`` runs the suite on N spawned workers of a
:class:`~repro.service.daemon.MaskOptDaemon`: they pull clips from one
shared queue, rebuild the engine from the same config, share the
kernel-spectra store, and stream results back while verification drains
full shape bins concurrently.  The numbers are bit-for-bit identical to
``--workers 1``.

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


def _litho_config(args):
    """The ``LithoConfig`` of the ``add_litho_knobs`` flags."""
    from repro.litho.simulator import LithoConfig

    return LithoConfig(
        pixel_nm=args.pixel_nm,
        max_kernels=args.max_kernels,
        backend=args.backend,
        device=args.device,
        spectra_store=_store_root(args),
    )


def _suite_clips(args) -> list:
    """The selected clips of a suite run, after checking that there are
    some and that ``--workers`` is at least 1."""
    clips = _build_clips(args)
    if not clips:
        raise ReproError("no clips selected")
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    return clips


def _budgets(args) -> dict[str, Any]:
    """``retries`` / ``deadline_s`` keyword arguments for the flags that
    were given; an absent flag leaves the service's default."""
    budgets: dict[str, Any] = {}
    if args.retries is not None:
        budgets["retries"] = args.retries
    if args.deadline is not None:
        budgets["deadline_s"] = args.deadline
    return budgets


def _print_results(results) -> None:
    """The per-clip results table."""
    print(f"{'clip':12s} {'EPE (nm)':>10s} {'PVB (nm^2)':>12s} "
          f"{'RT (s)':>8s} {'steps':>5s}  verified")
    marks = {"verified": "ok", "unverified": "-", "unverifiable": "n/a"}
    for result in results:
        print(
            f"{result.clip_name:12s} {result.epe_nm:10.3f} "
            f"{result.pvband_nm2:12.1f} {result.runtime_s:8.2f} "
            f"{result.steps:5d}  {marks.get(result.outcome, result.outcome)}"
        )


def _print_totals(results) -> dict[str, float]:
    """Print and return the summed EPE and runtime of a suite run."""
    totals = {
        "epe_nm": sum(result.epe_nm for result in results),
        "runtime_s": sum(result.runtime_s for result in results),
    }
    print(f"{'total':12s} {totals['epe_nm']:10.3f} {'':12s} "
          f"{totals['runtime_s']:8.2f}")
    return totals


def cmd_optimize(args) -> int:
    from repro.service import MaskOptService

    service = MaskOptService(litho_config=_litho_config(args))
    clips = _suite_clips(args)
    overrides = dict(args.opt or [])
    results = service.run_suite(
        args.engine, clips, workers=args.workers,
        engine_overrides=overrides, verify=not args.no_verify,
        journal=args.journal or None, **_budgets(args),
    )

    print(f"repro optimize: engine={args.engine} suite={args.suite} "
          f"clips={len(clips)} pixel={args.pixel_nm} nm "
          f"workers={args.workers}")
    _print_results(results)
    totals = _print_totals(results)
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
            "totals": totals,
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
    from repro.service import MaskOptService, resume_suite

    service = MaskOptService(litho_config=_litho_config(args))
    clips = _suite_clips(args)
    overrides = dict(args.opt or [])
    results, replayed = resume_suite(
        service, args.engine, clips, args.journal,
        workers=args.workers, engine_overrides=overrides,
        verify=not args.no_verify, **_budgets(args),
    )
    print(f"repro resume: engine={args.engine} suite={args.suite} "
          f"clips={len(clips)} workers={args.workers} "
          f"journal={args.journal}")
    print(f"replayed {replayed} completed clip(s) from the journal, "
          f"re-ran {len(clips) - replayed}")
    _print_results(results)
    totals = _print_totals(results)
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
            "totals": totals,
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
    from repro.service import MaskOptDaemon, OptRequest

    config = _litho_config(args)
    clips = _suite_clips(args)
    overrides = dict(args.opt or [])
    verify = not args.no_verify

    async def run():
        daemon = MaskOptDaemon(
            litho_config=config,
            workers=args.workers,
            max_pending=args.max_pending,
            journal=args.journal,
            **_budgets(args),
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
          f"clips={len(clips)} workers={args.workers}")
    _print_results(sorted(results, key=lambda r: r.request_id))
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
            "results": [result.to_dict() for result in results],
            "daemon_stats": stats,
            "version": __version__,
        }
        _write_json(args.stats_json, payload)
        print(f"wrote {args.stats_json}")
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
    from repro.backend import resolve_backend, torch_available
    from repro.litho.simulator import LithographySimulator
    from repro.litho.store import SPECTRA_STORE_ENV, open_store
    from repro.service import available_engines

    backend = resolve_backend(args.backend, device=args.device)
    print(f"repro {__version__}")
    print(f"python        : {sys.version.split()[0]}")
    print(f"cpu cores     : {os.cpu_count()}")
    print(f"torch         : {'available' if torch_available() else 'absent'}")
    print(f"array backend : {backend.name} (device={backend.device})")
    print(f"engines       : {', '.join(available_engines())}")

    root = _store_root(args)
    if root:
        store = open_store(root)
        print(f"spectra store : {store.root} ({store.entry_count()} entries)")
    else:
        print(f"spectra store : disabled (set --store or "
              f"${SPECTRA_STORE_ENV})")

    config = _litho_config(args)
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

    def add_run_knobs(p, journaled: bool = False) -> None:
        # resume rebuilds the journaled run, so it must be given the
        # same engine, suite and overrides.
        must_match = " (must match the journaled run)"
        p.add_argument("--engine", default="mbopc",
                       help="registry engine name" + (
                           must_match if journaled else
                           " (default mbopc; see bench-info for the list)"))
        p.add_argument("--suite", default="tiny",
                       choices=["tiny", "via", "metal"],
                       help="clip source" + (
                           must_match if journaled else
                           " (default: one tiny generated via clip)"))
        p.add_argument("--count", type=int, default=0,
                       help="limit the number of clips (0 = suite default)")
        p.add_argument("--names", default=None,
                       help="comma-separated clip names to keep (via/metal)")
        p.add_argument("--opt", action="append", type=_parse_override,
                       metavar="KEY=VALUE",
                       help="engine config override" + (
                           must_match if journaled else " (repeatable)"))
        p.add_argument("--no-verify", action="store_true",
                       help="skip the batched re-simulation cross-check")

    def add_litho_knobs(p) -> None:
        p.add_argument("--pixel-nm", type=float, default=4.0,
                       help="raster pitch (default 4 nm)")
        p.add_argument("--max-kernels", type=int, default=6,
                       help="SOCS kernel cap per corner (default 6)")
        p.add_argument("--backend", default="numpy",
                       choices=["numpy", "torch"],
                       help="array/device backend (default numpy; torch "
                            "runs the band engine on a device)")
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
    add_run_knobs(opt)
    opt.add_argument("--workers", type=int, default=1, metavar="N",
                     help="run the suite on N spawned worker processes "
                          "sharing one kernel-spectra store; "
                          "verification streams while workers optimize "
                          "(default 1 = in-process)")
    opt.add_argument("--json", default=None, metavar="PATH",
                     help="write machine-readable results to PATH "
                          "(atomic write)")
    add_delivery_knobs(opt)
    add_litho_knobs(opt)
    opt.set_defaults(func=cmd_optimize)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted --journal run from its journal",
    )
    add_run_knobs(resume, journaled=True)
    resume.add_argument("--workers", type=int, default=1, metavar="N",
                        help="workers for the re-dispatched remainder")
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
    add_litho_knobs(resume)
    resume.set_defaults(func=cmd_resume)

    serve = sub.add_parser(
        "serve", help="run the suite through the always-on async daemon"
    )
    add_run_knobs(serve)
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="persistent warm workers per engine pool "
                            "(default 2)")
    serve.add_argument("--max-pending", type=int, default=32, metavar="N",
                       help="per-tenant admission bound before requests "
                            "are shed with ServiceBusy (default 32)")
    serve.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write results + serving metrics JSON to PATH "
                            "(atomic write)")
    add_delivery_knobs(serve)
    add_litho_knobs(serve)
    serve.set_defaults(func=cmd_serve)

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
    add_litho_knobs(info)
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
