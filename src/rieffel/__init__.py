"""Numerical operator calculus for the deformed product x_J on
matrix-algebra-valued functions: Kohn-Nirenberg quantization, the Heisenberg
group action, the gamma symbol calculus, and the translation-symbol recovery
pipeline, with batch verification suites."""

from .algebra import cnorm, positivity_defect
from .deformation import (CutoffFamily, SkewForm, approximate_identity,
                          deformed_product, oscillatory_integral)
from .errors import (CapabilityError, DivergenceError, GridMismatchError,
                     MGFFormatError, ResolutionError)
from .grids import GridSpec
from .heisenberg import (HeisenbergPoint, conjugate_operator, intertwine_check,
                         smoothness_probe)
from .mgf import read_mgf, write_mgf
from .module_space import (ModuleFunction, boundary_report, fourier,
                           inner_product, modulate, module_norm, translate)
from .quantization import (CallableSymbol, ComposedOp, GridSymbol, KernelField,
                           LeftActionOp, OperatorHandle, PdoOp, PhaseSymbol,
                           TranslationSymbol, TrigPolySymbol, constant_symbol,
                           operator_norm_estimate, pi_seminorm,
                           symbol_to_kernel)
from .suites import SuiteConfig, VerificationReport, run_suite
from .symbolic_calculus import (GammaKernel, b_transform, coordinate_symbol,
                                gamma_reconstruct, gamma_reproduce,
                                poisson_bracket, recover_translation_symbol,
                                translation_certificate)

__version__ = "0.1.0"
