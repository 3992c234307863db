#!/usr/bin/env python3
"""Regenerate the packaged 4-digit coordinate files.

The first 20 names form the environment reset pool; the rest pad the
bundled evaluation subset with a spread of camber and thickness.
"""

from foilrl import bundled_airfoil_dir, naca
from foilrl.env import RESET_POOL_NAMES

EXTRA_CODES = [
    "0008", "0010", "0021", "0024",
    "1208", "1212", "1308", "1510",
    "2208", "2210", "2512", "2421",
    "3310", "3312", "3408", "3415",
    "4210", "4212", "4308", "4515",
    "4418", "5312", "5410", "5415",
    "6210", "6310", "6409", "6418",
    "7310", "7312", "7412", "7415",
    "8310", "8312", "8418", "8421",
    "9210", "9312", "9412", "9415",
]


def main() -> None:
    out_dir = bundled_airfoil_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [n.removeprefix("naca") for n in RESET_POOL_NAMES] + EXTRA_CODES
    for code in names:
        name = f"naca{code}"
        coords = naca.coordinates(code, n_per_side=81)
        naca.write_dat(out_dir / f"{name}.dat", name.upper(), coords)
    print(f"wrote {len(names)} files to {out_dir}")


if __name__ == "__main__":
    main()
