"""proteusctl: operator command line for the platform daemon, which
``proteusctl daemon`` serves on its main thread until SIGINT or SIGTERM.

While it serves, the loop's wake pipe is the signal wakeup fd, so a stop
signal wakes the loop however late it lands.  A daemon that cannot start
(a manifest it cannot load, a control socket it cannot bind) prints
``error: <code>: <message>``, leaves no socket and exits 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys

from .control import ControlClient, RemoteError
from .daemon import Daemon
from .errors import ProteusError
from .ham import SimulatedFpga
from .paths import resolve_socket_path


def _add_socket_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", metavar="PATH",
                        help="control socket path (default: PROTEUS_CONTROL "
                             "or <runtime-dir>/proteus/control.sock)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proteusctl",
        description="Control the Proteus virtual-device platform.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("daemon", help="run the platform daemon in the foreground")
    _add_socket_flag(p)
    p.add_argument("--runtime-dir", metavar="DIR",
                   help="base directory for endpoint links and the socket")
    p.add_argument("--ham", action="append", metavar="ID[:TYPE]", default=None,
                   help="simulated device to register (default sim0:sim-fpga-v1; "
                        "repeatable)")
    p.add_argument("--load", action="append", metavar="MANIFEST", default=[],
                   help="module manifest to load at startup (repeatable)")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("load", help="load a module manifest")
    p.add_argument("path")
    _add_socket_flag(p)

    p = sub.add_parser("deploy", help="deploy a module onto a device")
    p.add_argument("module")
    p.add_argument("--ham", required=True)
    p.add_argument("--queue", action="store_true",
                   help="wait in line instead of failing when the device is busy")
    _add_socket_flag(p)

    p = sub.add_parser("undeploy", help="stop a deployment")
    p.add_argument("deployment_id")
    _add_socket_flag(p)

    p = sub.add_parser("status", help="show platform state")
    p.add_argument("--json", action="store_true", dest="as_json")
    _add_socket_flag(p)

    p = sub.add_parser("trace", help="dump or follow the trace stream")
    p.add_argument("--follow", action="store_true")
    p.add_argument("--from-seq", type=int, default=0)
    _add_socket_flag(p)

    return parser


def _client(args) -> ControlClient:
    return ControlClient(resolve_socket_path(args.socket))


def _run_daemon(args) -> int:
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr)
    daemon = Daemon(runtime_dir=args.runtime_dir,
                    socket_path=resolve_socket_path(args.socket, args.runtime_dir))
    try:
        for spec in args.ham if args.ham is not None else ["sim0:sim-fpga-v1"]:
            ham_id, _, hardware_type = spec.partition(":")
            daemon.platform.register_ham(
                SimulatedFpga(ham_id, hardware_type or "sim-fpga-v1"))
        for manifest_path in args.load:
            daemon.platform.load_module_file(manifest_path)
    except BaseException:
        daemon.stop()  # it never served: this closes the socket and the platform
        raise
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: daemon.loop.request_stop())
    # Python runs a handler between bytecodes: one that lands just before
    # epoll_wait would wait for the next wake-up, were it not for the byte
    # the signal itself writes to the wake pipe
    signal.set_wakeup_fd(daemon.loop.wakeup_fd, warn_on_full_buffer=False)
    print(f"proteusctl daemon ready socket={daemon.server.socket_path}", flush=True)
    daemon.run()  # closing the loop gives the wakeup fd back
    return 0


def _fmt_ham(ham: dict) -> str:
    state = f"busy({ham['active_deployment']})" if ham["busy"] else "idle"
    return (f"  {ham['ham_id']:<10} {ham['hardware_type']:<14} {state:<12} "
            f"queue={ham['queue_depth']}")


def _print_status(status: dict) -> None:
    print("HAMs:")
    for ham in status["hams"]:
        print(_fmt_ham(ham))
    print("Modules:")
    for module in status["modules"]:
        impls = ", ".join(f"{i['behavior']}@{i['hardware_type']}"
                          for i in module["implementations"])
        print(f"  {module['module_id']:<10} {module['display_name']!r} [{impls}]")
    print("Deployments:")
    for dep in status["deployments"]:
        line = (f"  {dep['deployment_id']:<6} {dep['module_id']:<10} "
                f"{dep['ham_id']:<8} {dep['state']}")
        endpoint = dep.get("endpoint")
        if endpoint:
            line += f"  endpoint={endpoint['link']} ({endpoint['path']})"
        print(line)
    print(f"Queued requests: {status['queue_depth']}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "daemon":
            return _run_daemon(args)
        with _client(args) as client:
            if args.command == "load":
                payload = client.request("load", path=args.path)
                print(f"loaded module {payload['module_id']}")
            elif args.command == "deploy":
                payload = client.request(
                    "deploy", module_id=args.module, ham_id=args.ham,
                    policy="queue" if args.queue else "reject")
                line = f"deployment {payload['deployment_id']} {payload['state']}"
                if payload.get("endpoint"):
                    line += f" endpoint={payload['link']} ({payload['endpoint']})"
                print(line)
            elif args.command == "undeploy":
                payload = client.request("undeploy",
                                         deployment_id=args.deployment_id)
                print(f"undeployed {payload['deployment_id']}")
            elif args.command == "status":
                payload = client.request("status")
                if args.as_json:
                    print(json.dumps(payload["status"], indent=2, sort_keys=True))
                else:
                    _print_status(payload["status"])
            elif args.command == "trace":
                if args.follow:
                    for event in client.follow_trace(args.from_seq):
                        print(json.dumps(event), flush=True)
                else:
                    payload = client.request("trace", follow=False,
                                             from_seq=args.from_seq)
                    for event in payload["events"]:
                        print(json.dumps(event))
        return 0
    except (RemoteError, ProteusError) as exc:
        code = exc.code
        message = getattr(exc, "message", str(exc))
        print(f"error: {code}: {message}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"error: no-daemon: cannot reach control socket ({exc})",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
