"""Statistical simulator and closed-form analytics for FSO links relayed
by a reconfigurable reflecting surface, under Gamma-Gamma turbulence and
pointing-error fading. Use it by module: ``from risfso import analytic``."""

__version__ = "0.1.0"
