"""Command-line front end: parse, mark, generate, link, assemble, serialize."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cmml import MeaningTable, load_expansion_table
from .convert import build_content, build_parallel, build_presentation
from .errors import ConversionError, ParseError, ParseErrorKind
from .linker import check_links
from .parser import parse_xmath, read_xml_tree
from .serializer import EntityMode, SerializeOptions, serialize_mathml

MODES = ("pmml", "cmml", "parallel", "check")


def _read_input(path: str) -> str:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode; count columns in them,
        # and lines as XML does (CR LF and a lone CR each end one).
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head[head.rfind(b"\n") + 1 :].decode("utf-8")
        raise ParseError(
            ParseErrorKind.MALFORMED_XML,
            head.count(b"\n") + 1,
            len(line) + 1,
            f"input is not UTF-8: {exc}",
        ) from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def run(args: argparse.Namespace) -> int:
    """Execute one conversion. 0 on success, 1 on link violations, 2 on errors.

    ``args`` is the namespace that the command-line parser produces.
    """
    name = "<stdin>" if args.input == "-" else args.input
    table = MeaningTable.default()
    if args.expansions:
        try:
            rules = load_expansion_table(Path(args.expansions).read_text("utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{args.expansions}: error: {exc}", file=sys.stderr)
            return 2
        table = table.extended(rules)
    try:
        text = _read_input(args.input)
        if args.mode == "check":
            math = read_xml_tree(text)
            report = check_links(math)
            for line in report.lines():
                print(line)
            return 0 if report.ok else 1

        doc = parse_xmath(text)
        if args.mode == "parallel":
            math = build_parallel(
                doc,
                tex=args.tex,
                display=args.display,
                table=table,
            )
        elif args.mode == "pmml":
            math = build_presentation(doc, display=args.display)
        else:
            math = build_content(doc, table=table)
    except ParseError as exc:
        print(f"{name}:{exc.line}:{exc.col}: error: {exc.detail}", file=sys.stderr)
        return 2
    except (ConversionError, ValueError) as exc:
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{name}: error: formula too deeply self-referential", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 2

    options = SerializeOptions(
        pretty=args.pretty,
        entity_mode=(
            EntityMode.NUMERIC_REFS if args.numeric_entities else EntityMode.UTF8
        ),
    )
    try:
        _write_output(args.out, serialize_mathml(math, options))
    except OSError as exc:
        print(f"{args.out}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmathml",
        description=(
            "Convert XMath markup to cross-referenced parallel MathML, "
            "or check the cross-references of an existing document."
        ),
    )
    parser.add_argument("input", help="input file, or - for standard input")
    parser.add_argument(
        "--to",
        dest="mode",
        choices=MODES,
        default="parallel",
        help="output kind, or 'check' to validate an existing MathML file",
    )
    parser.add_argument("--out", default="-", help="output file (default: stdout)")
    parser.add_argument("--tex", help="TeX source for the annotation/alttext")
    parser.add_argument(
        "--display",
        choices=("block", "inline"),
        help="display attribute for the math element (default: derived)",
    )
    parser.add_argument("--expansions", help="extra expansion-rule table file")
    parser.add_argument("--pretty", action="store_true", help="indent the output")
    parser.add_argument(
        "--numeric-entities",
        action="store_true",
        help="escape non-ASCII output as numeric character references",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(_build_argparser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
