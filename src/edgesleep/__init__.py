"""Sleep-stage classification from single-channel EEG, sized for
microcontroller deployment.  The package root only loads its modules; each
name is imported from its module, e.g. ``edgesleep.model.predict``.  The
command line is ``edgesleep.cli``, which the root does not load."""

from . import budget, edf, epochs, kernels, metrics, model, quant, streaming, training

__version__ = "0.1.0"
