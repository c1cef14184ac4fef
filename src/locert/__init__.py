"""locert: exact left-orderability certificates for graph-manifold
fundamental groups.

Modules by subject:

* ``braid``     - B3 word problem, handle reduction, the Dubrovina-
                  Dubrovin ordering (read from the lifted SL(2, Z) action)
                  and its conjugates, the DD normal form that ``braid
                  reduce`` prints, and the peripheral subgroup of the
                  trefoil exterior
* ``klein``     - the Klein-bottle group, its two distinguished
                  orderings, and fillings of the twisted I-bundle
* ``slopes``    - slope calculus on torus boundaries, the walk over
                  primitive slopes that the splice search and the
                  Klein-bottle survey share, and the Heegaard Floer
                  surgery-rank calculator
* ``words``     - the names several layers share: group words with
                  their helpers (inversion, free reduction, powers),
                  ``Sign3``, the sign of an element in a left ordering,
                  and ``parse_int``, ``int_str`` and ``brief_repr``, which
                  read and print integers within the digit limit and
                  echo input
* ``fpgroup``   - presentations, Smith-normal-form abelianization,
                  Dehn-filling relators, amalgams and Todd-Coxeter
* ``seifert``   - Brieskorn recognition, left-orderable-slope verdict
                  rules (Moser's p - qrs read in place), splice certificates
* ``alexander`` - branched-cover homology orders by exact resultants
* ``compat``    - the mechanized orderings-compatibility check for the
                  trefoil / Klein-bottle gluing
* ``sampling``  - seeded random braid words for the property commands
                  and the tests
* ``cli``       - the ``locert`` command-line frontend

All arithmetic is exact (Python integers); no floating point is used
anywhere in a verdict.
"""

__version__ = "0.1.0"
