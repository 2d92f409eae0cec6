"""Finite-algebra workbench for MV-monoids and positive MV-algebras."""

from .algebra import (FiniteAlgebra, FiniteLMonoid, are_isomorphic,
                      canonical_key, chain_algebra, load, load_file,
                      make_algebra, make_lmonoid, order_dual, save,
                      trivial_algebra)
from .axioms import (AxiomReport, is_good_pair, is_mv_monoid, is_positive_mv,
                     si_necessary_condition)
from .congruences import (Congruence, CongruenceLattice, congruence_lattice,
                          identity_congruence, is_simple,
                          is_subdirectly_irreducible, monolith,
                          principal_congruence, principal_congruences,
                          total_congruence)
from .constructions import (catalog, catalog_names, cn_delta, cn_delta_star,
                            cn_nabla, cn_nabla_star, gamma_of_lex, lm_delta,
                            lm_delta_star, lm_nabla, lm_nabla_star, ln_plus,
                            product, quotient, si_quotients, subalgebras)
from .enumeration import enumerate_chain, enumerate_on_lattice
from .morphisms import homomorphisms, hs_closure, si_poset
from .posets import Poset, downset_lattice
from .terms import (CANCELLATIVITY, Equation, QuasiEquation, evaluate, parse,
                    satisfies, satisfies_all, satisfies_quasi, to_text)
from .varieties import (AxiomSet, DivisorClosedSet, almost_minimal_axioms,
                        classify_variety, divisor_closed_sets,
                        member_of_variety, phi, sigma, tau)

__version__ = "0.1.0"
