"""morsecert: machine-checked certificates that the combinatorial
circle-valued Morse functions built from moves and states on right-angled
polytopes are perfect (every link collapsible or collapsing to a sphere).
Each name is imported from the module that defines it; this one binds none."""
__version__ = "0.1.0"
