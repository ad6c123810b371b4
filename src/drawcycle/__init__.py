"""Unpaired drawing-to-drawing translation with a sparse-generator
cycle-consistent GAN, built on a tape-based numpy autodiff engine."""

from .autograd import Tape, Tensor, backward, zero_grad
from .data import Dataset, SynthConfig, load_pgm, save_pgm, synth_generate
from .metrics import MetricsReport, evaluate_dataset, mse, psnr, ssim
from .models import DiscriminatorNet, GeneratorNet, init_weights
from .objectives import (
    LossBundle, cycle_consistency_loss, gan_loss_discriminator,
    gan_loss_generator, identity_loss, total_objective,
)
from .training import ImagePool, TrainConfig, Trainer, lr_at_epoch, preset_config

__version__ = "0.1.0"
