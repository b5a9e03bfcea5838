//! [`CgraConfig`] — the validated bundle of architectural parameters.

use crate::memory::MemModel;
use crate::page::{LayoutError, PageLayout, PageShape};
use crate::pe::{FuClass, PeCapability};
use crate::register::RotatingRf;
use crate::topology::Mesh;
use serde::{Deserialize, Serialize};

/// A complete CGRA description: mesh, per-PE capability, rotating RF size,
/// memory buses, and the conceptual page division.
///
/// ```
/// use cgra_arch::CgraConfig;
/// let cgra = CgraConfig::square(4).with_page_size(4).unwrap();
/// assert_eq!(cgra.layout().num_pages(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgraConfig {
    mesh: Mesh,
    capability: PeCapability,
    rf: RotatingRf,
    mem: MemModel,
    layout: PageLayout,
}

impl CgraConfig {
    /// An `n × n` CGRA with the paper's defaults: homogeneous full-capability
    /// PEs, one bus per row, and 2×2 pages (page size 4).
    ///
    /// # Panics
    /// Panics if `n` is odd (2×2 pages must tile the mesh); use
    /// [`CgraConfig::new`] for exotic dimensions.
    pub fn square(n: u16) -> Self {
        CgraConfig::new(
            Mesh::new(n, n),
            PageShape::for_size(Mesh::new(n, n), 4)
                .expect("square() requires even n so 2x2 pages tile the mesh; use CgraConfig::new"),
        )
        .expect("2x2 shape validated above")
    }

    /// Build a config from a mesh and page shape.
    pub fn new(mesh: Mesh, page_shape: PageShape) -> Result<Self, LayoutError> {
        let layout = PageLayout::new(mesh, page_shape)?;
        Ok(CgraConfig {
            mesh,
            capability: PeCapability::full(),
            // §VI-E: N rotating registers per PE (N = number of pages)
            // guarantee shrink-to-one-page; default to at least that.
            rf: RotatingRf::new((layout.num_pages() as u16).max(8)),
            mem: MemModel::default(),
            layout,
        })
    }

    /// Replace the page division by one with `size` PEs per page.
    pub fn with_page_size(self, size: usize) -> Result<Self, LayoutError> {
        let shape = PageShape::for_size(self.mesh, size).ok_or(LayoutError::DoesNotTile {
            mesh: self.mesh,
            shape: PageShape::new(1, size.max(1) as u16),
        })?;
        let layout = PageLayout::new(self.mesh, shape)?;
        Ok(CgraConfig { layout, ..self })
    }

    /// Replace the rotating register file size.
    pub fn with_rf_size(mut self, size: u16) -> Self {
        self.rf = RotatingRf::new(size);
        self
    }

    /// Replace the per-PE capability set.
    pub fn with_capability(mut self, cap: PeCapability) -> Self {
        self.capability = cap;
        self
    }

    /// Replace the memory model.
    pub fn with_mem(mut self, mem: MemModel) -> Self {
        self.mem = mem;
        self
    }

    /// The PE mesh.
    #[inline]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The (homogeneous) capability of each PE.
    #[inline]
    pub fn capability(&self) -> PeCapability {
        self.capability
    }

    /// The rotating register file of each PE.
    #[inline]
    pub fn rf(&self) -> RotatingRf {
        self.rf
    }

    /// The memory subsystem.
    #[inline]
    pub fn mem(&self) -> MemModel {
        self.mem
    }

    /// The page division.
    #[inline]
    pub fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// Total PEs.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.mesh.num_pes()
    }

    /// Stable structural hash of every architectural parameter: mesh,
    /// page shape and ring order, PE capability, rotating RF size and
    /// memory model. Two configs with equal fingerprints compile every
    /// kernel identically, so caches key compiled artifacts on it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV prime
            }
        };
        eat(self.mesh.rows() as u64);
        eat(self.mesh.cols() as u64);
        let shape = self.layout.shape();
        eat(shape.h as u64);
        eat(shape.w as u64);
        for page in self.layout.pages() {
            let o = self.layout.origin(page);
            eat(((o.r as u64) << 16) | o.c as u64);
        }
        for class in [FuClass::Alu, FuClass::Mul, FuClass::Mem] {
            eat(self.capability.supports(class) as u64);
        }
        eat(self.rf.size() as u64);
        eat(self.mem.buses_per_row() as u64);
        eat(self.mem.scratch_words() as u64);
        h
    }

    /// The experimental grid from §VII-A: every (CGRA size, page size)
    /// combination the paper evaluates. The 6×6 "page size 8" point is
    /// substituted with 3×3 pages (size 9) as 8 does not divide 36; the
    /// substitution is recorded in DESIGN.md.
    pub fn paper_grid() -> Vec<CgraConfig> {
        let mut grid = Vec::new();
        for (dim, sizes) in [
            (4u16, &[2usize, 4, 8][..]),
            (6, &[2, 4, 9]),
            (8, &[2, 4, 8]),
        ] {
            for &s in sizes {
                let mesh = Mesh::new(dim, dim);
                let shape = PageShape::for_size(mesh, s).expect("paper grid shapes tile");
                grid.push(CgraConfig::new(mesh, shape).expect("paper grid layouts valid"));
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_default_is_2x2_pages() {
        let c = CgraConfig::square(4);
        assert_eq!(c.layout().num_pages(), 4);
        assert_eq!(c.layout().shape(), PageShape::new(2, 2));
    }

    #[test]
    fn with_page_size_rebuilds_layout() {
        let c = CgraConfig::square(4).with_page_size(2).unwrap();
        assert_eq!(c.layout().num_pages(), 8);
    }

    #[test]
    fn invalid_page_size_is_error() {
        assert!(CgraConfig::square(6).with_page_size(8).is_err());
    }

    #[test]
    fn rf_defaults_cover_page_count() {
        // §VI-E: N rotating registers per PE where N = number of pages.
        let c = CgraConfig::square(8).with_page_size(2).unwrap();
        // Note: with_page_size keeps the RF chosen at construction; the
        // caller tunes it explicitly when exploring page sizes.
        let pages = c.layout().num_pages() as u16;
        let c = c.with_rf_size(pages);
        assert!(c.rf().size() as usize >= c.layout().num_pages());
    }

    #[test]
    fn paper_grid_has_nine_points() {
        let grid = CgraConfig::paper_grid();
        assert_eq!(grid.len(), 9);
        assert!(grid.iter().all(|c| c.layout().ring_path_is_physical()));
    }

    #[test]
    fn fingerprint_separates_every_parameter() {
        let base = CgraConfig::square(4);
        let variants = [
            CgraConfig::square(4).with_page_size(2).unwrap(),
            CgraConfig::new(Mesh::new(4, 4), PageShape::new(1, 4)).unwrap(),
            CgraConfig::new(Mesh::new(2, 8), PageShape::new(2, 2)).unwrap(),
            CgraConfig::square(4).with_rf_size(2),
            CgraConfig::square(4).with_capability(PeCapability::full().with_mul(false)),
            CgraConfig::square(4).with_mem(MemModel::new(2, 1024)),
            CgraConfig::square(4).with_mem(MemModel::new(1, 2048)),
        ];
        assert_eq!(base.fingerprint(), CgraConfig::square(4).fingerprint());
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }

    #[test]
    fn builders_compose() {
        let c = CgraConfig::square(6)
            .with_page_size(9)
            .unwrap()
            .with_rf_size(16)
            .with_capability(PeCapability::full().with_mul(false));
        assert_eq!(c.layout().num_pages(), 4);
        assert_eq!(c.rf().size(), 16);
        assert!(!c.capability().supports(crate::pe::FuClass::Mul));
    }
}
