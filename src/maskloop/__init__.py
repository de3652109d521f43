"""maskloop: click-driven mask annotation as a small MDP.

The package root exports nothing: import each name from its submodule,
e.g. ``from maskloop.raster import BitMask``. Importing ``maskloop``
alone loads none of them.

The pieces, roughly bottom-up:

- :mod:`maskloop.util`: seeds, rounding, a mean, the JSON writer and the
  one task map every command that runs tasks goes through.
- :mod:`maskloop.fields`: the readers every JSON record read from outside
  goes through.
- :mod:`maskloop.raster`: masks, images, the region's deepest pixel, RLE,
  PGM/PPM io, overlay rendering.
- :mod:`maskloop.env`: tasks, actions, episode state and stepping.
- :mod:`maskloop.expert`: the deterministic next-click rule.
- :mod:`maskloop.segmenters`: oracle and region-growing segmenters plus a
  remote-backed one.
- :mod:`maskloop.policy`: the action text grammar, prompt rendering,
  expert-backed policies, and reward models.
- :mod:`maskloop.trajgen`: the episode driver every expert and policy
  episode runs on, trajectory recording, (de)serialization,
  training-sample rendering, synthetic task sets.
- :mod:`maskloop.improve`: rollouts, filtering / repair refinement,
  dataset manifests.
- :mod:`maskloop.search`: reward-model-guided greedy search.
- :mod:`maskloop.metrics`: cumulative IoU, clicks-to-threshold, score
  regression metrics.
- :mod:`maskloop.remote` / :mod:`maskloop.mock_server`: the HTTP protocol
  client and a faithful in-process stand-in.
- :mod:`maskloop.cli`: the ``maskloop`` command.
"""
