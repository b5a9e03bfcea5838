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
    /// Panics if `n` is zero or odd (2×2 pages must tile the mesh); use
    /// [`CgraConfig::try_square`] for user-supplied sizes and
    /// [`CgraConfig::new`] for exotic dimensions.
    pub fn square(n: u16) -> Self {
        Self::try_square(n.into(), 4)
            .unwrap_or_else(|e| panic!("square({n}): {e}; use CgraConfig::new"))
    }

    /// [`square(dim)`](Self::square) with `page_size`-PE pages: the
    /// fallible constructor for fabric sizes that come from a user.
    ///
    /// # Errors
    /// [`LayoutError::BadMesh`] if the mesh is empty or too large for
    /// [`PeId`](crate::PeId); [`LayoutError::DoesNotTile`] if `dim` is odd
    /// (the 2×2 default does not tile) or `page_size` does not tile it.
    pub fn try_square(dim: usize, page_size: usize) -> Result<Self, LayoutError> {
        let side = u16::try_from(dim)
            .ok()
            .filter(|&s| s > 0 && u32::from(s) * u32::from(s) <= u32::from(u16::MAX))
            .ok_or(LayoutError::BadMesh {
                rows: dim,
                cols: dim,
            })?;
        CgraConfig::new(Mesh::new(side, side), PageShape::new(2, 2))?.with_page_size(page_size)
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
        let layout = PageLayout::for_size(self.mesh, size)?;
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
    fn try_square_rejects_bad_fabrics_typed() {
        for dim in [0, 256, 65_535, 70_000] {
            assert!(
                matches!(
                    CgraConfig::try_square(dim, 4),
                    Err(LayoutError::BadMesh { .. })
                ),
                "{dim}"
            );
        }
        for (dim, page) in [(1, 4), (3, 4), (4, 3), (4, 0), (6, 8)] {
            assert!(
                matches!(
                    CgraConfig::try_square(dim, page),
                    Err(LayoutError::DoesNotTile { .. })
                ),
                "{dim} {page}"
            );
        }
        let c = CgraConfig::try_square(8, 2).unwrap();
        assert_eq!(c, CgraConfig::square(8).with_page_size(2).unwrap());
        assert!(CgraConfig::try_square(254, 4).is_ok());
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
