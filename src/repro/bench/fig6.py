"""Figure 6 -- Performance Overhead of Lots.

A single sequential write stream of 20..200 MB (step 20) against the
local filesystem, with the quota mechanism (NeST's lot implementation)
enabled and disabled.

Paper observations this module must reproduce:

* for small writes the cost of quotas is negligible;
* the cost "increases quickly with file size";
* in the worst case (long single sequential stream) write bandwidth
  drops by roughly 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.filesystem import FileSystemModel
from repro.models.platform import LINUX, PlatformProfile
from repro.sim.core import Environment

MB = 1_000_000

#: Write sizes along the figure's x axis, in MB.
WRITE_SIZES_MB = tuple(range(20, 201, 20))


@dataclass
class Fig6Result:
    """Two bandwidth series (MB/s) indexed by write size (MB)."""

    sizes_mb: tuple[int, ...] = WRITE_SIZES_MB
    disabled_mbps: dict[int, float] = field(default_factory=dict)
    enabled_mbps: dict[int, float] = field(default_factory=dict)

    def worst_case_ratio(self) -> float:
        """enabled/disabled at the largest write size."""
        largest = max(self.sizes_mb)
        return self.enabled_mbps[largest] / self.disabled_mbps[largest]


def measure_write(
    size_bytes: int,
    quotas_enabled: bool,
    platform: PlatformProfile = LINUX,
    chunk: int = 1 << 20,
) -> float:
    """Bandwidth (MB/s) of one sequential write stream, fsync at close."""
    with Environment() as env:
        fs = FileSystemModel(env, platform, quotas_enabled=quotas_enabled)
        fs.quotas.set_limit("writer", size_bytes * 2)
        fs.create("/fig6/stream", "writer")

        def writer():
            offset = 0
            while offset < size_bytes:
                n = min(chunk, size_bytes - offset)
                yield from fs.write("/fig6/stream", offset, n)
                offset += n
            yield from fs.sync("/fig6/stream")

        proc = env.process(writer())
        env.run(proc)
        return size_bytes / env.now / MB


def run(platform: PlatformProfile = LINUX) -> Fig6Result:
    """Regenerate both series of Figure 6."""
    result = Fig6Result()
    for size_mb in WRITE_SIZES_MB:
        size = size_mb * MB
        result.disabled_mbps[size_mb] = measure_write(size, False, platform)
        result.enabled_mbps[size_mb] = measure_write(size, True, platform)
    return result


def report(result: Fig6Result) -> str:
    """Render the two series as a table."""
    lines = ["Figure 6: Overhead of Lots (write bandwidth, MB/s)",
             f"{'size MB':>8} {'disabled':>9} {'enabled':>9} {'ratio':>6}"]
    for size_mb in result.sizes_mb:
        d = result.disabled_mbps[size_mb]
        e = result.enabled_mbps[size_mb]
        lines.append(f"{size_mb:>8} {d:>9.1f} {e:>9.1f} {e / d:>6.2f}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    from repro.obs.log import console

    console(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
