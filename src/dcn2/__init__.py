"""Modulated deformable convolution and RoI pooling with analytic gradients,
feature-mimic training at desk scale, and spatial-support analysis tools.

Feature maps are plain (N, C, H, W) numpy arrays throughout;
`read_tensor`/`write_tensor` convert them to and from the `.dcnt` file
format.
"""

from .deform_conv import (
    BRANCH_LR_MULTIPLIER,
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    mdconv_backward,
    mdconv_backward_optimized,
    mdconv_forward,
    mdconv_forward_optimized,
    offset_branch_forward,
)
from .deform_roipool import (
    PoolSpec,
    RoI,
    mdpool_backward,
    mdpool_forward,
    roi_branch_forward,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    ConfigurationError,
    ConvergenceError,
    FormatError,
    ShapeError,
    UsageError,
)
from .mimic import MimicBatch, MimicConfig, cosine_mimic_backward, cosine_mimic_loss
from .sampling import bilinear_backward, bilinear_sample
from .support import (
    NodeProbe,
    SaliencyMask,
    SuperpixelLabeling,
    effective_receptive_field,
    effective_sampling_locations,
    saliency_region,
    slic_segment,
)
from .tensor import read_tensor, write_tensor

__version__ = "0.1.0"
