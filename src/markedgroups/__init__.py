"""Desk-scale computational group theory around a family of tree groups.

Seven layers:

words          free and involutive-alphabet words, Klein four-group reduction
grigorchuk     the sequence-parameterized tree groups, their word problem
lamplighter    exact wreath-product models and the four-letter dictionary
marked_space   Cayley balls, growth, agreement radii, separating words
handles        the marked groups of the package as marked_space handles
circle_product graph products over difference-set graphs, minimality evidence
sampling       the deterministic LCG behind every random draw

The cli module exposes the experiments as subcommands. Each public name is
imported from the submodule that defines it; the package re-exports nothing,
so importing it loads no submodule.
"""

__version__ = "0.1.0"
