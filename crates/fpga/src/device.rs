/// Resource envelope of a target FPGA part.
///
/// Only the resources the paper reports on are modelled: logic slices (each holding two
/// 4-input LUTs and two flip-flops on a Virtex part), discrete registers (flip-flops)
/// and BlockRAM memories with their capacity and port count.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    name: String,
    slices: u64,
    block_rams: u64,
    block_ram_bits: u64,
    block_ram_ports: u32,
}

impl DeviceModel {
    /// Creates a custom device model.
    pub fn new(
        name: impl Into<String>,
        slices: u64,
        block_rams: u64,
        block_ram_bits: u64,
        block_ram_ports: u32,
    ) -> Self {
        Self {
            name: name.into(),
            slices,
            block_rams,
            block_ram_bits,
            block_ram_ports,
        }
    }

    /// The Xilinx Virtex XCV1000 BG560 device used in the paper: 12,288 slices,
    /// 32 BlockRAMs of 4,096 bits, each configurable as single- or dual-ported.
    pub fn xcv1000() -> Self {
        Self::new("XCV1000-BG560", 12_288, 32, 4_096, 2)
    }

    /// A smaller Virtex XCV300 part, useful for resource-pressure experiments.
    pub fn xcv300() -> Self {
        Self::new("XCV300", 3_072, 16, 4_096, 2)
    }

    /// Part name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logic slices.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Number of flip-flops (two per slice on Virtex parts).
    pub fn flip_flops(&self) -> u64 {
        self.slices * 2
    }

    /// Number of BlockRAM primitives.
    pub fn block_rams(&self) -> u64 {
        self.block_rams
    }

    /// Capacity of one BlockRAM in bits.
    pub fn block_ram_bits(&self) -> u64 {
        self.block_ram_bits
    }

    /// Number of independent access ports per BlockRAM.
    pub fn block_ram_ports(&self) -> u32 {
        self.block_ram_ports
    }

    /// Number of BlockRAMs needed to hold `bits` bits of data.
    pub fn block_rams_for(&self, bits: u64) -> u64 {
        bits.div_ceil(self.block_ram_bits).max(1)
    }

    /// Slice occupancy as a fraction of the device, clamped to `[0, +∞)`.
    pub fn slice_occupancy(&self, used_slices: u64) -> f64 {
        used_slices as f64 / self.slices as f64
    }

    /// Returns `true` when the given slice and BlockRAM usage fits on the device.
    pub fn fits(&self, used_slices: u64, used_block_rams: u64) -> bool {
        used_slices <= self.slices && used_block_rams <= self.block_rams
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::xcv1000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcv1000_matches_the_paper_envelope() {
        let d = DeviceModel::xcv1000();
        assert_eq!(d.name(), "XCV1000-BG560");
        assert_eq!(d.slices(), 12_288);
        assert_eq!(d.flip_flops(), 24_576);
        assert_eq!(d.block_rams(), 32);
        assert_eq!(d.block_ram_bits(), 4_096);
        assert_eq!(d.block_ram_ports(), 2);
    }

    #[test]
    fn block_ram_packing_rounds_up() {
        let d = DeviceModel::xcv1000();
        assert_eq!(d.block_rams_for(1), 1);
        assert_eq!(d.block_rams_for(4_096), 1);
        assert_eq!(d.block_rams_for(4_097), 2);
        assert_eq!(d.block_rams_for(65_536), 16);
    }

    #[test]
    fn occupancy_and_fit() {
        let d = DeviceModel::xcv300();
        assert!((d.slice_occupancy(1_536) - 0.5).abs() < 1e-12);
        assert!(d.fits(3_072, 16));
        assert!(!d.fits(3_073, 1));
        assert!(!d.fits(1, 17));
    }

    #[test]
    fn default_is_the_paper_device() {
        assert_eq!(DeviceModel::default(), DeviceModel::xcv1000());
    }
}
