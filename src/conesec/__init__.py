"""Sections of convex bodies by flats and cones, and the star bodies they induce.

Subpackage map:

- ``geometry``  convex bodies (polytopes, balls), subspaces, polyhedral cones, polarity
- ``volume``    exact moments via triangulation, Monte Carlo, isotropic position
- ``sections``  flat and cone sections, Brunn section-volume functions
- ``ball_bodies``  moment bodies L_p(f) of concave profiles and their constants
- ``intersection_bodies``  central-section star bodies and their convexification
- ``verify``    inequality checks, closed-form experiments, the body corpus
- ``cli``       command-line front end emitting JSON/CSV reports
"""

__version__ = "0.1.0"
