"""Record the artifact digests that the correctness gate checks.

Runs one op of every workload at the default seed, at full and at test
size, and writes ``digests.json``. Run it from the repository root only
when a change to the benchmark's inputs or ops is meant to change results::

    python3 scalebench/record_digests.py
"""

from __future__ import annotations

import json
import shutil

from run import ROOT, WORK_ROOT
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, import_scaledet, sha256


def main() -> None:
    import_scaledet()
    digests = {}
    for cls in WORKLOADS.values():
        for size in (cls.full_size, cls.tiny_size):
            work = WORK_ROOT / f"digests-{cls.name}-{size}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                workload = cls(DEFAULT_SEED, work, size)
                workload.setup()
                workload.op()
                problems = workload.problems()
                if problems:
                    raise SystemExit(f"{cls.name}@{size}: {problems}")
                digests[workload.digest_key()] = {
                    name: sha256(data) for name, data in sorted(workload.artifacts().items())
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {cls.name}@{size}")
    WORK_ROOT.rmdir()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
