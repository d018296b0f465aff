"""Link-level simulator and numerics library for a RIS-assisted NOMA-MIMO
downlink at terahertz carriers.

Submodules:
    config      scenario parameters, validation, INI grammar
    channel     array layout, THz LoS/multi-ray/surface gains, matrices,
                Nakagami fading
    noma        SIC-ordered SINRs, capacities, outage indicators
    allocation  fixed and fair power-allocation schemes
    ergodic     closed-form ergodic capacity and its Monte Carlo oracle
    montecarlo  deterministic chunked outage and sum-rate sweeps
    cli         command-line front end
"""

__version__ = "0.1.0"

from .config import FAR, NEAR, ConfigError, ScenarioConfig, parse_config

__all__ = ["FAR", "NEAR", "ConfigError", "ScenarioConfig", "parse_config",
           "__version__"]
