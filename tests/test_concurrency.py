from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

from xmathml import (
    EntityMode,
    SerializeOptions,
    TargetNode,
    build_parallel,
    serialize_mathml,
    serializer,
)
from treegen import make_corpus


def test_parallel_conversions_are_independent():
    docs = make_corpus(64, seed=7)

    def convert(doc):
        return serialize_mathml(build_parallel(doc, tex="t"))

    serial = [convert(doc) for doc in docs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(convert, docs))
    assert threaded == serial


def test_serializer_memos_shared_across_threads():
    """Threads that serialize in both entity modes, with four times more
    distinct attribute values than the memos hold, each write the bytes
    a lone call writes, while the memos fill and start over under them."""
    per_tree = serializer._MEMO_CAP // 4
    trees = [
        TargetNode(
            "mrow",
            {"id": f"r{t}"},
            [
                TargetNode(
                    "mi",
                    {"mathvariant": "normal", "id": f"m{t}.{i}", "class": f'c{t}.{i}"α'},
                    text="x",
                )
                for i in range(per_tree)
            ],
        )
        for t in range(8)
    ]
    modes = (SerializeOptions(), SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS))
    jobs = [(tree, opts) for tree in trees for opts in modes]
    serial = [serialize_mathml(tree, opts) for tree, opts in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            calls = pool.map(lambda job: serialize_mathml(*job), jobs * 4, timeout=120)
            threaded = list(calls)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4
