"""Library operation of the special-large-s workload.

Computes the Apery sets of both special point classes with the general
shortest-path engine (`profile_from_generators`) and compares each with
its closed form.  One line per class on stdout::

    python bench/engine_op.py --s 4
"""

import argparse
import sys

import skabelund as sk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--s", type=int, required=True)
    s = parser.parse_args(argv).s
    p = sk.make_params(s)
    for point, generators, closed_form in (
        ("rational", sk.rational_generators, sk.rational_apery),
        ("quartic", sk.quartic_generators, sk.quartic_apery),
    ):
        profile = sk.profile_from_generators(generators(p))
        agrees = frozenset(profile.apery) == closed_form(p)
        print(f"{point} s={s} multiplicity={profile.multiplicity} genus={profile.genus} "
              f"conductor={profile.conductor} closed_form_agrees={agrees}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
