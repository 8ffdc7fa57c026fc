#!/usr/bin/env python3
"""The paper in miniature: build every structure over one county and
print Table 1- and Table 2-style comparisons.

Run:  python examples/index_shootout.py [county] [scale]
e.g.  python examples/index_shootout.py charles 0.05
"""

import sys

from repro.data import generate_county
from repro.harness import format_table1, format_table2, measure_county
from repro.harness.normalized import by_structure


def main() -> None:
    county = sys.argv[1] if len(sys.argv) > 1 else "charles"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05

    map_data = generate_county(county, scale=scale)
    print(f"{county}: {len(map_data)} segments (scale {scale})\n")

    county_record = measure_county(
        map_data,
        n_queries=100,
        window_area_fraction=min(0.0001 / scale, 0.01),
    )
    print("— build statistics (Table 1 row) —")
    print(format_table1([county_record["table1"]]))

    print("\n— query statistics (Table 2) —")
    print(format_table2(by_structure(county_record["workloads"]), county=county))


if __name__ == "__main__":
    main()
